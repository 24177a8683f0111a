"""Fabric/DosnConfig surface: wiring, validation, failure-cause metrics."""

import pytest

from repro.dosn import DosnConfig, DosnNetwork
from repro.dosn.storage import DHTBackend
from repro.exceptions import OverlayError
from repro.fabric import Fabric
from repro.faults import (Crash, FaultPlan, Partition, ReliableChannel,
                          RetryPolicy)
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay
from repro.overlay.network import SimNetwork
from repro.overlay.simulator import Simulator


class TestFabric:
    def test_create_defaults(self):
        fab = Fabric.create(seed=3)
        assert fab.network.sim is fab.sim
        assert fab.tracer is NOOP_TRACER
        assert fab.channel is None

    def test_create_tracing_and_resilience(self):
        fab = Fabric.create(seed=3, tracing=True, resilient=True)
        assert isinstance(fab.tracer, Tracer)
        assert fab.network.tracer is fab.tracer
        assert fab.channel is not None
        assert fab.channel.network is fab.network

    def test_retry_implies_channel(self):
        fab = Fabric.create(seed=0, retry=RetryPolicy(max_attempts=2))
        assert fab.channel is not None

    def test_mismatched_simulator_rejected(self):
        net = SimNetwork(Simulator(1))
        with pytest.raises(Exception):
            Fabric(Simulator(2), net)

    def test_rng_is_lazy_and_does_not_perturb_network_stream(self):
        draws = []
        for touch_rng in (False, True):
            fab = Fabric.create(seed=9)
            if touch_rng:
                fab.rng.random()  # split must not disturb the network rng
            ring = ChordRing(fab)
            for i in range(8):
                ring.add_node(f"p{i}")
            ring.build()
            _, rtt = fab.network.rpc("p0", "p1")
            draws.append(rtt)
        assert draws[0] == draws[1]

    def test_wrong_type_rejected_with_clear_error(self):
        with pytest.raises(TypeError, match="ChordRing"):
            ChordRing(object())

    def test_bare_network_and_channel_kwarg_rejected(self):
        net = SimNetwork(Simulator(5))
        with pytest.raises(TypeError, match="ChordRing"):
            ChordRing(net)
        with pytest.raises(TypeError, match="KademliaOverlay"):
            KademliaOverlay(net)
        fab = Fabric.create(seed=5)
        channel = ReliableChannel(fab.network, RetryPolicy(max_attempts=2))
        with pytest.raises(TypeError):
            ChordRing(fab, channel=channel)
        with pytest.raises(TypeError):
            DHTBackend(ChordRing(fab), channel=channel)


class TestDosnConfig:
    def test_dosn_loose_kwargs_removed(self):
        with pytest.raises(TypeError, match="unexpected"):
            DosnNetwork(architecture="local", seed=1,
                        encrypt_content=False)
        with pytest.raises(TypeError, match="unexpected"):
            DosnNetwork(config=DosnConfig(), level="TOY")

    def test_dosn_unknown_kwarg_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected"):
            DosnNetwork(architecture="local", replicas=3)

    def test_dosn_config_still_spells_the_old_knobs(self):
        net = DosnNetwork(config=DosnConfig(architecture="local",
                                            encrypt_content=False))
        assert net.config.encrypt_content is False

    def test_validates_architecture(self):
        with pytest.raises(OverlayError):
            DosnConfig(architecture="blockchain")

    def test_positional_args_override_config(self):
        net = DosnNetwork("local", 42, config=DosnConfig(seed=1))
        assert net.config.architecture == "local"
        assert net.config.seed == 42

    def test_tracing_config_installs_real_tracer(self):
        net = DosnNetwork(config=DosnConfig(architecture="local",
                                            tracing=True))
        net.add_user("alice")
        net.post("alice", "hi")
        assert any(s.name == "dosn.post" for s in net.tracer.spans)

    def test_stable_public_surface(self):
        import repro.dosn.api as api
        assert api.__all__ == ["ARCHITECTURES", "DOSN_SPEC", "DosnConfig",
                               "DosnNetwork"]


class TestRpcFailureCauseMetrics:
    def test_loss_cause_recorded_with_kind_and_direction(self):
        fab = Fabric.create(seed=2, loss_rate=0.999999)
        from repro.overlay.network import SimNode
        for name in ("a", "b"):
            fab.network.register(SimNode(name))
        ok, _ = fab.network.rpc("a", "b", kind="chord_step")
        assert not ok
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="chord_step", cause="loss",
            direction="request") == 1

    def test_offline_cause_recorded(self):
        fab = Fabric.create(seed=2)
        from repro.overlay.network import SimNode
        for name in ("a", "b"):
            fab.network.register(SimNode(name))
        fab.network.node("b").go_offline()
        ok, _ = fab.network.rpc("a", "b", kind="kad_find")
        assert not ok
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="kad_find", cause="offline",
            direction="request") == 1

    def test_partition_cause_recorded(self):
        plan = FaultPlan(seed=2, horizon=100.0)
        plan.add(Partition(groups=[frozenset({"a"})], start=0.0, end=100.0))
        fab = Fabric.create(seed=2, faults=plan)
        from repro.overlay.network import SimNode
        for name in ("a", "b"):
            fab.network.register(SimNode(name))
        ok, _ = fab.network.rpc("a", "b", kind="chord_final")
        assert not ok
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="chord_final", cause="partition",
            direction="request") == 1

    def test_success_records_no_failure(self):
        fab = Fabric.create(seed=2)
        from repro.overlay.network import SimNode
        for name in ("a", "b"):
            fab.network.register(SimNode(name))
        ok, _ = fab.network.rpc("a", "b", kind="chord_step")
        assert ok
        assert fab.metrics.get_counter_value(
            "net.rpc_failures", kind="chord_step", cause="loss",
            direction="request") == 0


class TestCryptoProfiling:
    def test_profile_crypto_records_ops_and_bytes(self):
        from repro.crypto.symmetric import StreamCipher, random_key
        from repro.obs import MetricsRegistry, profile_crypto
        reg = MetricsRegistry()
        cipher = StreamCipher(random_key(32))
        with profile_crypto(reg):
            blob = cipher.encrypt(b"x" * 100)
            cipher.decrypt(blob)
        assert reg.get_counter_value("crypto.ops", op="stream.encrypt") == 1
        assert reg.get_counter_value("crypto.ops", op="stream.decrypt") == 1
        assert reg.get_counter_value("crypto.bytes",
                                     op="stream.encrypt") == 100
        from repro.obs.metrics import WALL_NS_BUCKETS
        wall = reg.histogram("crypto.stream.encrypt.wall_ns",
                             bounds=WALL_NS_BUCKETS)
        assert wall.count == 1  # the profiler timed exactly one encrypt

    def test_profiling_off_by_default(self):
        from repro.crypto.symmetric import StreamCipher, random_key
        from repro.obs import hooks
        assert hooks.ACTIVE is None
        cipher = StreamCipher(random_key(32))
        cipher.decrypt(cipher.encrypt(b"quiet"))  # no profiler, no error
