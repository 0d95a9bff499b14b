"""Unit tests for the gateway router, using a scripted fake backend."""

import pytest

from repro.core.containment import DropAllPolicy, OpenPolicy, ReflectionPolicy
from repro.core.gateway import Gateway
from repro.net.addr import AddressSpaceInventory, IPAddress, Prefix
from repro.net.gre import GreTunnel, encapsulate
from repro.net.packet import TcpFlags, tcp_packet, udp_packet
from repro.services.dns import DnsServer
from repro.vmm.host import PhysicalHost
from repro.vmm.memory import GuestAddressSpace
from repro.vmm.snapshot import ReferenceSnapshot
from repro.vmm.vm import VirtualMachine, VMState

EXTERNAL = IPAddress.parse("203.0.113.50")
DARK1 = IPAddress.parse("10.16.0.5")
DARK2 = IPAddress.parse("10.16.0.200")
DNS_IP = IPAddress.parse("198.18.53.53")


class FakeBackend:
    """Creates VMs instantly (bypassing the clone pipeline) and records
    deliveries. ``clone_delay`` > 0 leaves VMs in CLONING until
    ``finish_clones`` is called, for queue-during-clone tests."""

    def __init__(self, sim, snapshot, instant=True):
        self.sim = sim
        self.snapshot = snapshot
        self.instant = instant
        self.delivered = []
        self.spawned = []
        self.capacity = 10**9

    def spawn_vm(self, ip):
        if len(self.spawned) >= self.capacity:
            return None
        vm = VirtualMachine(
            self.snapshot, GuestAddressSpace(self.snapshot.image), ip, self.sim.now
        )
        if self.instant:
            vm.start(self.sim.now)
        self.spawned.append(vm)
        return vm

    def deliver(self, vm, packet):
        self.delivered.append((vm, packet))

    def finish_clone(self, gateway, vm):
        vm.start(self.sim.now)
        gateway.vm_ready(vm)


@pytest.fixture
def inventory():
    return AddressSpaceInventory([Prefix.parse("10.16.0.0/24")])


@pytest.fixture
def backend(sim, snapshot):
    return FakeBackend(sim, snapshot)


def make_gateway(sim, inventory, backend, policy=None, dns=None, external_sink=None):
    return Gateway(
        sim=sim,
        inventory=inventory,
        policy=policy or ReflectionPolicy(inventory),
        backend=backend,
        dns_server=dns,
        external_sink=external_sink,
    )


class TestInboundDispatch:
    def test_first_packet_spawns_vm_and_queues(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = make_gateway(sim, inventory, backend)
        gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 1, 445))
        assert len(backend.spawned) == 1
        assert backend.delivered == []  # queued while cloning
        assert gw.metrics.counter("gateway.queued_during_clone").value == 1

    def test_queued_packets_flushed_on_vm_ready(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = make_gateway(sim, inventory, backend)
        for i in range(3):
            gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 1000 + i, 445))
        vm = backend.spawned[0]
        backend.finish_clone(gw, vm)
        assert len(backend.delivered) == 3
        assert all(v is vm for v, __ in backend.delivered)

    def test_running_vm_receives_directly(self, sim, inventory, backend):
        gw = make_gateway(sim, inventory, backend)
        gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 1, 445))
        gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 2, 445))
        assert len(backend.spawned) == 1  # same address, same VM
        assert len(backend.delivered) == 2

    def test_distinct_addresses_get_distinct_vms(self, sim, inventory, backend):
        gw = make_gateway(sim, inventory, backend)
        gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 1, 445))
        gw.process_inbound(tcp_packet(EXTERNAL, DARK2, 1, 445))
        assert len(backend.spawned) == 2
        assert gw.live_vm_count == 2

    def test_stray_traffic_dropped(self, sim, inventory, backend):
        gw = make_gateway(sim, inventory, backend)
        gw.process_inbound(tcp_packet(EXTERNAL, IPAddress.parse("10.99.0.1"), 1, 445))
        assert backend.spawned == []
        assert gw.metrics.counter("gateway.stray").value == 1

    def test_no_capacity_drop(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot)
        backend.capacity = 0
        gw = make_gateway(sim, inventory, backend)
        gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 1, 445))
        assert gw.metrics.counter("gateway.no_capacity_drop").value == 1

    def test_ttl_expired_dropped(self, sim, inventory, backend):
        gw = make_gateway(sim, inventory, backend)
        dead = tcp_packet(EXTERNAL, DARK1, 1, 445)
        dead.ttl = 0
        gw.process_inbound(dead)
        assert backend.spawned == []
        assert gw.metrics.counter("gateway.ttl_expired").value == 1

    def test_pending_queue_bounded(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = make_gateway(sim, inventory, backend)
        gw.max_pending_per_ip = 2
        packets = [tcp_packet(EXTERNAL, DARK1, 1000 + i, 445) for i in range(5)]
        for pkt in packets:
            gw.process_inbound(pkt)
        assert gw.metrics.counter("gateway.pending_overflow").value == 3
        # Regression: the three overflowed packets (distinct src ports ->
        # distinct flows) were observed before the drop decision; their
        # flow accounting must be unwound, leaving only the two queued
        # flows with exactly one packet each.
        assert len(gw.flows) == 2
        for record in gw.flows:
            assert record.packets == 1
            assert record.bytes == packets[0].size

    def test_pending_overflow_unwinds_existing_flow_accounting(
        self, sim, inventory, snapshot
    ):
        # Same 5-tuple throughout: the overflowed retransmits land on the
        # *existing* record, which must be rolled back but kept alive.
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = make_gateway(sim, inventory, backend)
        gw.max_pending_per_ip = 2
        pkt = tcp_packet(EXTERNAL, DARK1, 1000, 445)
        for _ in range(5):
            gw.process_inbound(pkt)
        assert gw.metrics.counter("gateway.pending_overflow").value == 3
        assert len(gw.flows) == 1
        record = next(iter(gw.flows))
        assert record.packets == 2
        assert record.bytes == 2 * pkt.size

    def test_tunnel_ingress_counts_and_dispatches(self, sim, inventory, backend):
        gw = make_gateway(sim, inventory, backend)
        tunnel = GreTunnel(key=1, router_endpoint=EXTERNAL, gateway_endpoint=DARK1)
        gw.receive_tunnel(encapsulate(tunnel, tcp_packet(EXTERNAL, DARK1, 1, 445)))
        assert gw.metrics.counter("gateway.tunnel_in").value == 1
        assert len(backend.spawned) == 1


class TestVmRetirement:
    def test_retired_vm_is_forgotten(self, sim, inventory, backend):
        gw = make_gateway(sim, inventory, backend)
        gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 1, 445))
        vm = backend.spawned[0]
        gw.vm_retired(vm)
        assert gw.live_vm_count == 0
        gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 2, 445))
        assert len(backend.spawned) == 2  # a fresh VM for the same address

    def test_retire_clears_flows_and_pending(self, sim, inventory, snapshot):
        backend = FakeBackend(sim, snapshot, instant=False)
        gw = make_gateway(sim, inventory, backend)
        gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 1, 445))
        vm = backend.spawned[0]
        gw.vm_retired(vm)
        backend.finish_clone(gw, vm)  # late completion: queue already gone
        assert backend.delivered == []


class TestOutboundContainment:
    def prime_vm(self, gw, backend, dark=DARK1):
        """Create a running VM for `dark` via a normal inbound packet."""
        gw.process_inbound(tcp_packet(EXTERNAL, dark, 999, 445))
        return backend.spawned[-1]

    def test_reply_on_external_flow_allowed_out(self, sim, inventory, backend):
        sent = []
        gw = make_gateway(sim, inventory, backend,
                          policy=DropAllPolicy(), external_sink=sent.append)
        vm = self.prime_vm(gw, backend)
        reply = tcp_packet(DARK1, EXTERNAL, 445, 999, flags=TcpFlags.SYN | TcpFlags.ACK)
        gw.emit_from_vm(vm, reply)
        assert sent == [reply]  # drop-all policy does NOT block replies
        assert gw.metrics.counter("gateway.reply_external_out").value == 1

    def test_initiated_traffic_dropped_by_drop_all(self, sim, inventory, backend):
        sent = []
        gw = make_gateway(sim, inventory, backend,
                          policy=DropAllPolicy(), external_sink=sent.append)
        vm = self.prime_vm(gw, backend)
        gw.emit_from_vm(vm, tcp_packet(DARK1, EXTERNAL, 1024, 445, payload="exploit:sasser"))
        assert sent == []
        assert gw.metrics.counter("gateway.outbound.dropped").value == 1

    def test_initiated_traffic_escapes_under_open(self, sim, inventory, backend):
        sent = []
        gw = make_gateway(sim, inventory, backend,
                          policy=OpenPolicy(), external_sink=sent.append)
        vm = self.prime_vm(gw, backend)
        gw.emit_from_vm(vm, tcp_packet(DARK1, EXTERNAL, 1024, 445))
        assert len(sent) == 1
        assert gw.metrics.counter("gateway.initiated_external_out").value == 1

    def test_reflection_redirects_scan_into_farm(self, sim, inventory, backend):
        sent = []
        gw = make_gateway(sim, inventory, backend, external_sink=sent.append)
        vm = self.prime_vm(gw, backend)
        scan = tcp_packet(DARK1, EXTERNAL, 1024, 445, payload="exploit:sasser")
        gw.emit_from_vm(vm, scan)
        assert sent == []  # nothing escaped
        assert gw.metrics.counter("gateway.outbound.reflected").value == 1
        # The reflected packet was dispatched inbound to a farm address:
        assert len(backend.spawned) == 2
        stand_in = backend.spawned[-1]
        assert inventory.covers(stand_in.ip)

    def test_reflected_reply_is_nat_translated(self, sim, inventory, backend):
        gw = make_gateway(sim, inventory, backend)
        vm = self.prime_vm(gw, backend)
        scan = tcp_packet(DARK1, EXTERNAL, 1024, 445, payload="exploit:sasser")
        gw.emit_from_vm(vm, scan)
        stand_in = backend.spawned[-1]
        # The stand-in answers the reflected scan:
        reflected = backend.delivered[-1][1]
        answer = reflected.reply_template()
        answer.flags = TcpFlags.SYN | TcpFlags.ACK
        gw.emit_from_vm(stand_in, answer)
        # vm receives it with the source rewritten to the original target.
        delivered_vm, delivered_packet = backend.delivered[-1]
        assert delivered_vm is vm
        assert delivered_packet.src == EXTERNAL

    def test_dns_redirect_completes_transaction(self, sim, inventory, backend):
        dns = DnsServer(DNS_IP)
        gw = make_gateway(sim, inventory, backend, dns=dns)
        vm = self.prime_vm(gw, backend)
        query = udp_packet(DARK1, IPAddress.parse("8.8.8.8"), 1024, 53, payload="dns:q")
        gw.emit_from_vm(vm, query)
        sim.run()
        assert dns.queries_answered == 1
        delivered_vm, response = backend.delivered[-1]
        assert delivered_vm is vm
        # Transparent redirection: answer appears to come from 8.8.8.8.
        assert str(response.src) == "8.8.8.8"
        assert response.payload.startswith("dns:answer")

    def test_direct_query_to_internal_resolver(self, sim, inventory, backend):
        dns = DnsServer(DNS_IP)
        gw = make_gateway(sim, inventory, backend, dns=dns)
        vm = self.prime_vm(gw, backend)
        gw.emit_from_vm(vm, udp_packet(DARK1, DNS_IP, 1024, 53, payload="dns:q"))
        sim.run()
        response = backend.delivered[-1][1]
        assert response.src == DNS_IP

    def test_dns_redirect_without_resolver_drops(self, sim, inventory, backend):
        from repro.core.containment import AllowDnsPolicy
        gw = make_gateway(sim, inventory, backend, policy=AllowDnsPolicy())
        vm = self.prime_vm(gw, backend)
        gw.emit_from_vm(vm, udp_packet(DARK1, IPAddress.parse("8.8.8.8"), 1024, 53))
        assert gw.metrics.counter("gateway.outbound.dropped").value == 1


class TestTunnelRegistration:
    def test_duplicate_key_rejected(self, sim, inventory, backend):
        gw = make_gateway(sim, inventory, backend)
        tunnel = GreTunnel(key=1, router_endpoint=EXTERNAL, gateway_endpoint=DARK1)
        gw.register_tunnel(tunnel, [Prefix.parse("10.16.0.0/24")])
        with pytest.raises(ValueError):
            gw.register_tunnel(tunnel, [])

    def test_prefix_outside_inventory_rejected(self, sim, inventory, backend):
        gw = make_gateway(sim, inventory, backend)
        tunnel = GreTunnel(key=1, router_endpoint=EXTERNAL, gateway_endpoint=DARK1)
        with pytest.raises(ValueError):
            gw.register_tunnel(tunnel, [Prefix.parse("10.99.0.0/24")])

    def test_replies_exit_through_owning_tunnel(self, sim, inventory, snapshot):
        from repro.net.link import Link
        backend = FakeBackend(sim, snapshot)
        received = []
        gw = make_gateway(sim, inventory, backend, policy=DropAllPolicy())
        tunnel = GreTunnel(key=9, router_endpoint=EXTERNAL, gateway_endpoint=DARK1)
        link = Link(sim, received.append, propagation_delay=0.001)
        gw.register_tunnel(tunnel, [Prefix.parse("10.16.0.0/24")], return_link=link)
        gw.process_inbound(tcp_packet(EXTERNAL, DARK1, 999, 445))
        vm = backend.spawned[0]
        gw.emit_from_vm(vm, tcp_packet(DARK1, EXTERNAL, 445, 999,
                                       flags=TcpFlags.SYN | TcpFlags.ACK))
        sim.run()
        assert len(received) == 1
        assert received[0].tunnel.key == 9
        assert received[0].inner.src == DARK1


class TestReflectedConversation:
    """One reflected conversation, hop by hop: the worm's SYN is
    reflected onto a stand-in, the stand-in's SYN/ACK comes back
    NAT-translated, the exploit that follows is NAT-rewritten onto the
    stand-in, and the banner comes back translated again.

    Every internal hop is one packet copy, so the expected values below
    (recorded before the hop copy was fused) pin that fusing changed no
    field, no TTL and no packet id.
    """

    TARGET = IPAddress.parse("203.0.113.77")

    def converse(self, sim, inventory, backend):
        sent = []
        gw = make_gateway(sim, inventory, backend, external_sink=sent.append)
        probe = tcp_packet(EXTERNAL, DARK1, 999, 445)
        base = probe.packet_id
        gw.process_inbound(probe)
        worm = backend.spawned[-1]
        gw.emit_from_vm(worm, tcp_packet(DARK1, self.TARGET, 1024, 80))
        stand_in = backend.spawned[-1]
        syn = backend.delivered[-1][1]
        synack = syn.reply_template()
        synack.flags = TcpFlags.SYN | TcpFlags.ACK
        gw.emit_from_vm(stand_in, synack)
        gw.emit_from_vm(worm, tcp_packet(
            DARK1, self.TARGET, 1024, 80,
            flags=TcpFlags.PSH | TcpFlags.ACK, payload="exploit:codered",
        ))
        exploit = backend.delivered[-1][1]
        gw.emit_from_vm(stand_in, exploit.reply_template(payload="banner:iis"))
        assert sent == []  # nothing escaped
        hops = [
            (
                "worm" if vm is worm else "stand-in",
                str(p.src), str(p.dst), p.src_port, p.dst_port, int(p.flags),
                p.payload, p.size, p.ttl, p.packet_id - base,
            )
            for vm, p in backend.delivered
        ]
        flows = sorted(
            (str(r.key), str(r.initiator), r.packets, r.bytes) for r in gw.flows
        )
        return gw, stand_in, hops, flows

    def test_hops_flows_and_nat_counts(self, sim, inventory, backend):
        gw, stand_in, hops, flows = self.converse(sim, inventory, backend)
        assert str(stand_in.ip) == "10.16.0.61"
        assert hops == [
            ("worm", "203.0.113.50", "10.16.0.5", 999, 445, 2, "", 40, 64, 0),
            ("stand-in", "10.16.0.5", "10.16.0.61", 1024, 80, 2, "", 40, 63, 2),
            ("worm", "203.0.113.77", "10.16.0.5", 80, 1024, 18, "", 40, 63, 4),
            ("stand-in", "10.16.0.5", "10.16.0.61", 1024, 80, 24,
             "exploit:codered", 55, 63, 6),
            ("worm", "203.0.113.77", "10.16.0.5", 80, 1024, 0,
             "banner:iis", 40, 63, 8),
        ]
        assert flows == [
            ("10.16.0.5:1024<->10.16.0.61:80/6", "10.16.0.5", 4, 175),
            ("10.16.0.5:1024<->203.0.113.77:80/6", "10.16.0.5", 3, 120),
            ("10.16.0.5:445<->203.0.113.50:999/6", "203.0.113.50", 1, 40),
        ]
        assert gw.nat.translations == 2
        assert gw.nat.outbound_translations == 1
        assert len(gw.nat) == 1
