"""The three benchmark workloads: set-up, the timed stream, the checks.

Every workload is a closed loop with one client and no think time: each
library call waits for the previous one, as a researcher's script does.
All inputs derive from the workload seed (:func:`derive`); the program
only receives the generated inputs and a derived config seed.  Each
workload configures the library through ``DosnConfig`` /
``Fabric.create`` fields alone.

A workload's :meth:`step` runs one step of its stream through the
:class:`harness.OpRunner`, which times the library call; the judging
callbacks here run after the clock stops and record correctness
problems on the tally.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Tuple

from harness import OpRunner, SpanRecorder, Tally
from instrument import counters

from repro.cache import CacheConfig
from repro.dosn.api import DosnConfig, DosnNetwork
from repro.exceptions import ReproError
from repro.fabric import Fabric
from repro.membership import MembershipConfig
from repro.overlay.chord import ChordRing, chord_id
from repro.overlay.churn import ExponentialOnOff, apply_churn_to_network
from repro.overlay.kademlia import KademliaOverlay, kad_id
from repro.storage2 import ReplicationConfig
from repro.workloads.graphs import social_graph
from repro.workloads.traces import generate_posts

#: posts read back through the library after the timed phase
READBACK = 32


def derive(seed: int, label: str) -> int:
    """A sub-seed for one input stream (string seeding is hash-stable)."""
    return random.Random(f"perfbench/{seed}/{label}").getrandbits(31)


def _user_order(graph) -> List[str]:
    return sorted(graph.nodes, key=lambda name: int(name[len("user"):]))


class Workload:
    """What the runner drives; subclasses fill in the workload."""

    name = ""
    #: the operation kinds this workload times (``op_latency_ms`` is the
    #: geometric mean of their medians)
    kinds: Tuple[str, ...] = ()
    #: stream steps per second of ``--seconds``.  A run's work is fixed by
    #: its arguments and sized to take about that long at the reference
    #: host speed: the streams are not stationary (timelines and stores
    #: grow), so a run bounded by time would measure a heavier mix on a
    #: faster host.
    steps_per_second = 0.0
    #: the shortest stream, so that every timed kind gets about a hundred
    #: samples even in a short run
    min_steps = 0
    #: steps per traced / untraced block in a traced run
    block = 0
    #: set-ups per untraced run (``setup_s`` is their median): enough
    #: that they span several seconds of the host's speed drift
    setups = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: set by the runner while a traced block is active
        self.recorder: Optional[SpanRecorder] = None
        self.runner: Optional[OpRunner] = None
        self.tally: Optional[Tally] = None

    def steps(self, seconds: float) -> int:
        """Stream steps of a run of ``seconds``."""
        return max(self.min_steps, round(seconds * self.steps_per_second))

    def bind(self, runner: OpRunner) -> None:
        self.runner = runner
        self.tally = runner.tally

    def params(self) -> Dict[str, object]:
        raise NotImplementedError

    def config_repr(self) -> str:
        raise NotImplementedError

    def setup(self, tick: Callable[[], None] = lambda: None) -> None:
        """Build the world; ``tick`` is called between library calls (the
        host-speed probe may run there, outside any call)."""
        raise NotImplementedError

    def step(self, i: int) -> None:
        raise NotImplementedError

    def readback(self) -> None:
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        raise NotImplementedError

    def digest(self) -> Dict[str, int]:
        """Deterministic modelled counts at this point of the stream."""
        tally = self.tally
        out = dict(self.counters())
        out.update(attempted=tally.attempted, failed=tally.failed,
                   skipped=tally.skipped)
        return out


# -- DOSN workloads ----------------------------------------------------------------


class _DosnWorkload(Workload):
    """Post / feed streams over a :class:`DosnNetwork`."""

    users = 0
    initial_posts = 0
    limit_per_friend = 2
    #: posts generated per chunk of the (lazily extended) post stream
    chunk = 512

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.net: Optional[DosnNetwork] = None
        #: cid -> (author, text) of every successful post
        self.posted: Dict[str, Tuple[str, str]] = {}
        self.feed_items = 0
        self._stream: List = []
        self._chunks = 0
        self._readers = random.Random(derive(seed, "readers"))

    def config(self) -> DosnConfig:
        raise NotImplementedError

    def config_repr(self) -> str:
        return repr(self.config())

    def setup(self, tick: Callable[[], None] = lambda: None) -> None:
        graph = social_graph(self.users, kind="ws",
                             seed=derive(self.seed, "graph"))
        self.names = _user_order(graph)
        self.graph = graph
        self.net = DosnNetwork(config=self.config())
        for name in self.names:
            self.net.add_user(name)
            tick()
        # DosnNetwork.apply_social_graph, one edge at a time
        for a, b in graph.edges:
            self.net.befriend(str(a), str(b))
            tick()
        for _ in range(self.initial_posts):
            event = self._next_post()
            cid = self.net.post(event.author, event.text, event.tags)
            self.posted[cid] = (event.author, event.text)
            tick()

    def _next_post(self):
        if not self._stream:
            self._stream = generate_posts(
                self.graph, self.chunk,
                seed=derive(self.seed, f"posts/{self._chunks}"))
            self._stream.reverse()
            self._chunks += 1
        return self._stream.pop()

    def counters(self) -> Dict[str, int]:
        net = self.net
        return counters(net.network, net.sim, net.metrics)

    def digest(self) -> Dict[str, int]:
        out = super().digest()
        out["feed_items"] = self.feed_items
        out["posts"] = len(self.posted)
        return out

    # -- timed operations -------------------------------------------------------------

    def _post(self) -> None:
        event = self._next_post()
        if not self._online(event.author):
            self.tally.skip()
            return
        net = self.net

        def judge(cid) -> Optional[str]:
            self.posted[cid] = (event.author, event.text)
            return None

        self.runner.run("post", lambda: net.post(event.author, event.text,
                                                 event.tags), judge)

    def _feed(self) -> None:
        reader = self._readers.choice(self.names)
        if not self._online(reader):
            self.tally.skip()
            return
        net = self.net
        self.runner.run(
            "feed", lambda: net.feed(reader,
                                     limit_per_friend=self.limit_per_friend),
            lambda report: self._judge_feed(reader, report))

    def _online(self, user: str) -> bool:
        return True

    #: whether a feed violation breaks the correctness gate (no faults are
    #: injected, so a violation can only be a defect)
    violations_are_defects = True

    def _judge_feed(self, reader: str, report) -> Optional[str]:
        friends = self.net.users[reader].friends
        for item in report.items:
            self.feed_items += 1
            post = item.post
            if item.result is None or not item.result.verified:
                self.tally.problem(
                    f"feed of {reader}: {post.content_id} not verified")
            if item.author not in friends:
                self.tally.problem(
                    f"feed of {reader}: {item.author} is no friend")
            if self.posted.get(post.content_id) != (item.author, post.text):
                self.tally.problem(
                    f"feed of {reader}: {post.content_id} does not match "
                    "what was posted")
        if report.violations:
            if self.violations_are_defects:
                self.tally.problem(
                    f"feed of {reader}: violations {report.violations[:2]}")
            return "feed_violation"
        return None if report.clean else "feed_unavailable"

    def readback(self) -> None:
        """Read a seeded sample of posted cids back through ``read``."""
        rng = random.Random(derive(self.seed, "readback"))
        cids = sorted(self.posted)
        for cid in rng.sample(cids, min(READBACK, len(cids))):
            author, text = self.posted[cid]
            friends = sorted(self.net.users[author].friends)
            reader = rng.choice(friends) if friends else author
            try:
                result = self.net.read(reader, author, cid)
            except ReproError as exc:
                self.tally.problem(f"readback of {cid} raised {exc!r}")
                continue
            if not result.verified or result.post.text != text:
                self.tally.problem(f"readback of {cid} returned other bytes")


class SocialDht(_DosnWorkload):
    """4,096 users on the legacy ``replication=2`` ring, defaults only."""

    name = "social_dht"
    kinds = ("post", "feed")
    users = 4096
    initial_posts = 1024
    posts_per_feed = 3
    steps_per_second = 220.0
    min_steps = 400
    block = 8

    def params(self) -> Dict[str, object]:
        return {"users": self.users, "graph": "ws",
                "initial_posts": self.initial_posts,
                "posts_per_feed": self.posts_per_feed,
                "limit_per_friend": self.limit_per_friend}

    def config(self) -> DosnConfig:
        return DosnConfig(architecture="dht",
                          seed=derive(self.seed, "config"))

    def step(self, i: int) -> None:
        if i % (self.posts_per_feed + 1) < self.posts_per_feed:
            self._post()
        else:
            self._feed()


class ChurnQuorum(_DosnWorkload):
    """256 users on the full opt-in read stack, under seeded churn."""

    name = "churn_quorum"
    kinds = ("post", "feed")
    users = 256
    initial_posts = 128
    #: virtual seconds between two steps (one post and one feed fall due)
    interval = 0.5
    #: virtual seconds between two churn flips
    flip_every = 15.0
    #: the session model is queried this far in, past its initial transient
    #: (every schedule starts with an offline gap)
    warmup = 3000.0
    mean_online = 3600.0
    mean_offline = 600.0
    #: virtual seconds of full availability before the read-back
    recovery = 60.0
    steps_per_second = 40.0
    min_steps = 150
    block = 10
    setups = 9
    violations_are_defects = False

    def params(self) -> Dict[str, object]:
        return {"users": self.users, "graph": "ws",
                "initial_posts": self.initial_posts,
                "limit_per_friend": self.limit_per_friend,
                "step_interval_s": self.interval,
                "churn": {"model": "ExponentialOnOff",
                          "mean_online_s": self.mean_online,
                          "mean_offline_s": self.mean_offline,
                          "flip_every_s": self.flip_every,
                          "warmup_s": self.warmup}}

    def config(self) -> DosnConfig:
        return DosnConfig(
            architecture="dht", seed=derive(self.seed, "config"),
            replication=ReplicationConfig(n=3, r=2, w=2,
                                          repair_interval=30.0),
            membership=MembershipConfig(), cache=CacheConfig())

    def setup(self, tick: Callable[[], None] = lambda: None) -> None:
        super().setup(tick)
        self.model = ExponentialOnOff(
            mean_online=self.mean_online, mean_offline=self.mean_offline,
            seed=derive(self.seed, "churn"),
            horizon=self.warmup + 7 * 86400.0)
        self.start = self.net.sim.now
        self._flip()

    def _flip(self) -> None:
        rec = self.recorder
        span = rec.open("churn.flip") if rec is not None else -1
        sim = self.net.sim
        apply_churn_to_network(self.net.network, self.model,
                               self.warmup + sim.now - self.start)
        if rec is not None:
            rec.close(span)
        sim.schedule(self.flip_every, self._flip)

    def _online(self, user: str) -> bool:
        return self.net.network.is_online(user)

    def step(self, i: int) -> None:
        due = self.start + self.interval * (i + 1)
        sim = self.net.sim
        self.runner.timed("advance", lambda: sim.run(until=due))
        self._post()
        self._feed()

    def readback(self) -> None:
        """Bring every peer back, let membership and repair settle, read."""
        for node in self.net.network.nodes.values():
            if not node.online:
                node.go_online()
        self.model = _AllOnline()
        sim = self.net.sim
        sim.run(until=sim.now + self.recovery)
        super().readback()


class _AllOnline:
    """Churn model used after the timed phase: every peer stays up."""

    @staticmethod
    def online_at(peer: str, t: float) -> bool:
        return True


# -- raw overlays --------------------------------------------------------------------


class OverlayLookup(Workload):
    """8,192-peer Chord and 1,024-peer Kademlia on one fabric, no crypto."""

    name = "overlay_lookup"
    kinds = ("chord_lookup", "chord_put", "kad_lookup")
    chord_peers = 8192
    chord_replication = 3
    kad_peers = 1024
    kad_k = 8
    value_bytes = 64
    #: every this-many Chord answers is also checked against ``owner_of``
    owner_of_every = 8
    steps_per_second = 450.0
    min_steps = 300
    block = 30

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._rng = random.Random(derive(seed, "stream"))
        #: key -> value of every successful put
        self.stored: Dict[str, bytes] = {}
        self.hops = 0

    def params(self) -> Dict[str, object]:
        return {"chord_peers": self.chord_peers,
                "chord_replication": self.chord_replication,
                "kad_peers": self.kad_peers, "kad_k": self.kad_k,
                "value_bytes": self.value_bytes,
                "mix": list(self.kinds)}

    def config_repr(self) -> str:
        return (f"Fabric.create(seed={derive(self.seed, 'config')}); "
                f"ChordRing(replication={self.chord_replication}); "
                f"KademliaOverlay(k={self.kad_k})")

    def setup(self, tick: Callable[[], None] = lambda: None) -> None:
        self.fabric = Fabric.create(seed=derive(self.seed, "config"))
        self.ring = ChordRing(self.fabric,
                              replication=self.chord_replication)
        # Fixed peer names: the id layout has no collision (add_node
        # rejects one), and the seed varies start peers and keys.
        for i in range(self.chord_peers):
            self.ring.add_node(f"c{i}")
            tick()
        self.ring.build()
        tick()
        self.kad = KademliaOverlay(self.fabric, k=self.kad_k)
        for i in range(self.kad_peers):
            self.kad.add_node(f"k{i}")
            tick()
        self.kad.bootstrap()
        self.chord_names = list(self.ring.nodes)
        self.kad_names = list(self.kad.nodes)
        self._references()

    def _references(self) -> None:
        """Brute-force ground truth kept by the benchmark itself."""
        pairs = sorted((chord_id(name), name) for name in self.chord_names)
        self._chord_ids = [cid for cid, _ in pairs]
        self._chord_owner = [name for _, name in pairs]
        self._kad_ids = [(kad_id(name), name) for name in self.kad_names]

    def chord_reference(self, key: str) -> str:
        """The successor of the key's id on the sorted ring."""
        index = bisect_left(self._chord_ids, chord_id(key))
        return self._chord_owner[index % len(self._chord_owner)]

    def kad_reference(self, key: str) -> List[str]:
        """The k peers closest to the key by XOR, nearest first."""
        target = kad_id(key)
        return [name for _, name in heapq.nsmallest(
            self.kad_k, self._kad_ids, key=lambda pair: pair[0] ^ target)]

    def _key(self) -> str:
        return f"key-{self._rng.getrandbits(64):016x}"

    def _judge_owner(self, key: str, result) -> Optional[str]:
        self.hops += result.hops
        want = self.chord_reference(key)
        if self.tally.attempted % self.owner_of_every == 0 \
                and self.ring.owner_of(key) != want:
            self.tally.problem(f"owner_of({key}) disagrees with the sorted "
                               "ring")
        if result.owner != want:
            self.tally.problem(f"chord owner of {key}: {result.owner} != "
                               f"{want}")
            return "wrong_owner"
        return None

    def step(self, i: int) -> None:
        rng = self._rng
        kind = self.kinds[i % len(self.kinds)]
        key = self._key()
        if kind == "chord_lookup":
            start = rng.choice(self.chord_names)
            self.runner.run("chord_lookup",
                            lambda: self.ring.lookup(start, key),
                            lambda result: self._judge_owner(key, result))
        elif kind == "chord_put":
            start = rng.choice(self.chord_names)
            value = rng.randbytes(self.value_bytes)

            def judge(result) -> Optional[str]:
                cause = self._judge_owner(key, result)
                if cause is None:
                    self.stored[key] = value
                return cause

            self.runner.run("chord_put",
                            lambda: self.ring.put(start, key, value), judge)
        else:
            start = rng.choice(self.kad_names)
            self.runner.run("kad_lookup",
                            lambda: self.kad.lookup(start, key),
                            lambda result: self._judge_kad(key, result))

    def _judge_kad(self, key: str, result) -> Optional[str]:
        self.hops += result.hops
        target = kad_id(key)
        got = sorted(result.closest, key=lambda name: kad_id(name) ^ target)
        if got != self.kad_reference(key):
            self.tally.problem(f"kademlia closest-{self.kad_k} of {key} "
                               "differs from the XOR brute force")
            return "wrong_closest"
        return None

    def readback(self) -> None:
        rng = random.Random(derive(self.seed, "readback"))
        keys = sorted(self.stored)
        for key in rng.sample(keys, min(READBACK, len(keys))):
            try:
                value, _ = self.ring.get(rng.choice(self.chord_names), key)
            except ReproError as exc:
                self.tally.problem(f"readback of {key} raised {exc!r}")
                continue
            if value != self.stored[key]:
                self.tally.problem(f"readback of {key} returned other bytes")

    def counters(self) -> Dict[str, int]:
        fabric = self.fabric
        return counters(fabric.network, fabric.sim, fabric.metrics)

    def digest(self) -> Dict[str, int]:
        out = super().digest()
        out["hops"] = self.hops
        out["stored"] = len(self.stored)
        return out


WORKLOADS = {cls.name: cls for cls in (SocialDht, ChurnQuorum,
                                       OverlayLookup)}
