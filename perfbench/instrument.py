"""Per-layer tracing of the library from the benchmark's own code.

No span lives inside ``src/``.  A traced block patches the public
functions listed in :data:`SPANNED` on their classes with wrappers that
open a span around each call, and :data:`COUNTED` with wrappers that
only count (functions too hot to span); :func:`uninstall` restores the
originals, so untraced blocks run the unmodified library.

Modelled outputs (message, byte, event and protocol counts) are read
from the library's own counters by :func:`counters` and reported as
per-layer counts, never as speed.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional, Tuple

from harness import SpanRecorder

#: reads a wrapped call's result into :attr:`SpanRecorder.sums`
Observer = Optional[Callable[[SpanRecorder, object], None]]


def _lookup_hops(rec: SpanRecorder, result) -> None:
    rec.sums["chord.lookup.hops"] += result.hops


def _kad_rounds(rec: SpanRecorder, result) -> None:
    rec.sums["kad.lookup.rpcs"] += result.rpcs
    rec.sums["kad.lookup.rounds"] += result.hops


def _rpc_ok(rec: SpanRecorder, future) -> None:
    rec.sums["network.rpc_issue.ok"] += bool(future.ok)


def _feed_items(rec: SpanRecorder, report) -> None:
    rec.sums["dosn.feed.items"] += len(report.items)


#: (span name, module, class, method, observer of the result)
SPANNED: Tuple[Tuple[str, str, str, str, Observer], ...] = (
    ("chord.owner_of", "repro.overlay.chord", "ChordRing", "owner_of", None),
    ("chord.replica_set", "repro.overlay.chord", "ChordRing",
     "replica_set", None),
    ("chord.lookup", "repro.overlay.chord", "ChordRing", "lookup",
     _lookup_hops),
    ("chord.put", "repro.overlay.chord", "ChordRing", "put", None),
    ("chord.get", "repro.overlay.chord", "ChordRing", "get", None),
    ("chord.get_many", "repro.overlay.chord", "ChordRing", "get_many", None),
    ("chord.add_node", "repro.overlay.chord", "ChordRing", "add_node", None),
    ("chord.build", "repro.overlay.chord", "ChordRing", "build", None),
    ("kad.add_node", "repro.overlay.kademlia", "KademliaOverlay",
     "add_node", None),
    ("kad.bootstrap", "repro.overlay.kademlia", "KademliaOverlay",
     "bootstrap", None),
    ("kad.lookup", "repro.overlay.kademlia", "KademliaOverlay", "lookup",
     _kad_rounds),
    ("network.rpc", "repro.overlay.network", "SimNetwork", "rpc", None),
    ("network.rpc_issue", "repro.overlay.network", "SimNetwork",
     "rpc_issue", _rpc_ok),
    ("sim.run", "repro.overlay.simulator", "Simulator", "run", None),
    ("storage2.put", "repro.storage2.quorum", "ReplicatedStore", "put",
     None),
    ("storage2.get", "repro.storage2.quorum", "ReplicatedStore", "get",
     None),
    ("storage2.get_many", "repro.storage2.quorum", "ReplicatedStore",
     "get_many", None),
    ("storage2.repair_round", "repro.storage2.repair", "AntiEntropyDaemon",
     "run_round", None),
    ("cache.lookup", "repro.cache.content", "VerifiedContentCache",
     "lookup", None),
    ("cache.prefetch", "repro.cache.prefetch", "SocialPrefetcher", "warm",
     None),
    ("crypto.sign", "repro.crypto.signatures", "SchnorrSigner", "sign",
     None),
    ("crypto.verify", "repro.crypto.signatures", "SchnorrPublicKey",
     "verify", None),
    ("crypto.cipher", "repro.crypto.symmetric", "StreamCipher", "encrypt",
     None),
    ("crypto.cipher", "repro.crypto.symmetric", "StreamCipher", "decrypt",
     None),
    ("dosn.seal_post", "repro.dosn.user", "DosnUser", "seal_post", None),
    ("dosn.verify_document", "repro.dosn.user", "DosnUser",
     "verify_document", None),
    ("dosn.sync_timeline", "repro.dosn.user", "DosnUser", "sync_timeline",
     None),
    ("dosn.feed", "repro.dosn.api", "DosnNetwork", "feed", _feed_items),
    ("stack", "repro.stack.pipeline", "ProtectionStack", "post", None),
    ("stack", "repro.stack.pipeline", "ProtectionStack", "read", None),
)

#: (count name, module, class, method): called ~1.6k times per churn
#: step, so a span each would dominate the traced run
COUNTED: Tuple[Tuple[str, str, str, str], ...] = (
    ("membership.receive", "repro.membership.swim", "MemberView",
     "receive"),
)


def _spanned(rec: SpanRecorder, name: str, fn, observe: Observer):
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if observe is not None:
            observe(rec, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _counted(rec: SpanRecorder, name: str, fn):
    counts = rec.counts

    def wrapper(*args, **kwargs):
        if not rec.paused:
            counts[name] += 1
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


Patch = Tuple[type, str, object]


def install(rec: SpanRecorder) -> List[Patch]:
    """Wrap every listed function; returns what :func:`uninstall` needs."""
    patches: List[Patch] = []
    targets = [(name, module, cls, method, observe, True)
               for name, module, cls, method, observe in SPANNED]
    targets += [(name, module, cls, method, None, False)
                for name, module, cls, method in COUNTED]
    for name, module, cls_name, method, observe, spanned in targets:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[method]
        wrapper = (_spanned(rec, name, original, observe) if spanned
                   else _counted(rec, name, original))
        setattr(cls, method, wrapper)
        patches.append((cls, method, original))
    return patches


def uninstall(patches: List[Patch]) -> None:
    """Restore the original functions (reverse order of installation)."""
    for cls, method, original in reversed(patches):
        setattr(cls, method, original)


# -- modelled counters --------------------------------------------------------------

#: registry counters read by :func:`counters` (summed over labels)
REGISTRY_COUNTERS = (
    "membership.pings", "membership.indirect_chains", "membership.confirms",
    "storage.read_repairs", "storage.repair_pulls",
    "storage.re_replications", "cache.hits", "cache.misses",
    "cache.prefetched",
)


def counters(network, sim, metrics) -> Dict[str, int]:
    """Snapshot of the modelled counts a traced block is charged with."""
    stats = network.stats
    summary = stats.summary()
    out = {
        "messages": summary["messages"],
        "bytes": summary["bytes"],
        "failures": summary["failures"],
        "events": sim.events_processed,
        "swim_messages": sum(count for kind, count in stats.by_kind.items()
                             if kind.startswith("swim_")),
    }
    totals = dict.fromkeys(REGISTRY_COUNTERS, 0)
    for instrument in metrics:
        if instrument.kind == "counter" and instrument.name in totals:
            totals[instrument.name] += instrument.value
    out.update(totals)
    return out


def delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


# -- per-layer metrics ---------------------------------------------------------------

#: name -> unit of every per-layer metric, in report order
PER_LAYER_UNITS: Dict[str, str] = {
    "chord.owner_of.calls": "count",
    "chord.owner_of.self_ms": "ms",
    "chord.replica_set.calls": "count",
    "chord.lookup.calls": "count",
    "chord.lookup.self_ms": "ms",
    "chord.lookup.hops_per_call": "hops/call",
    "chord.put.self_ms": "ms",
    "chord.get.self_ms": "ms",
    "chord.get_many.self_ms": "ms",
    "chord.add_node.self_ms": "ms",
    "chord.build.self_ms": "ms",
    "kad.add_node.self_ms": "ms",
    "kad.bootstrap.self_ms": "ms",
    "kad.lookup.calls": "count",
    "kad.lookup.self_ms": "ms",
    "kad.lookup.rpcs_per_call": "rpcs/call",
    "kad.lookup.rounds_per_call": "rounds/call",
    "network.rpc.calls": "count",
    "network.rpc.self_ms": "ms",
    "network.rpc_issue.calls": "count",
    "network.rpc_issue.self_ms": "ms",
    "network.messages_per_op": "msgs/op",
    "network.bytes_per_op": "B/op",
    "network.failures": "count",
    "network.rpc_success_ratio": "ratio",
    "sim.run.calls": "count",
    "sim.run.self_ms": "ms",
    "sim.events": "count",
    "sim.events_per_advance": "events/call",
    "membership.self_ms": "ms",
    "membership.pings": "count",
    "membership.indirect_chains": "count",
    "membership.confirms": "count",
    "membership.messages": "count",
    "storage2.put.calls": "count",
    "storage2.put.self_ms": "ms",
    "storage2.get.self_ms": "ms",
    "storage2.get_many.self_ms": "ms",
    "storage2.repair_round.calls": "count",
    "storage2.repair_round.self_ms": "ms",
    "storage2.read_repairs": "count",
    "storage2.repair_pulls": "count",
    "storage2.re_replications": "count",
    "cache.lookup.self_ms": "ms",
    "cache.prefetch.self_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.prefetched": "count",
    "crypto.sign.calls": "count",
    "crypto.sign.self_ms": "ms",
    "crypto.verify.calls": "count",
    "crypto.verify.self_ms": "ms",
    "crypto.cipher.self_ms": "ms",
    "dosn.seal_post.self_ms": "ms",
    "dosn.verify_document.self_ms": "ms",
    "dosn.sync_timeline.self_ms": "ms",
    "dosn.feed.self_ms": "ms",
    "dosn.feed.items_per_call": "items/call",
    "stack.self_ms": "ms",
    "unattributed_ms_per_op": "ms/op",
    "tracing_overhead_ratio": "ratio",
}

#: functions that run only while the world is set up; their metrics come
#: from the traced set-up, every other metric from the traced blocks
SETUP_FUNCTIONS = ("chord.add_node", "chord.build", "kad.add_node",
                   "kad.bootstrap")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Dict[str, Tuple[int, float, float]],
                  timed: Dict[str, Tuple[int, float, float]],
                  rec: SpanRecorder, modelled: Dict[str, int],
                  ops: int, overhead_ratio: float) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER_UNITS` from one traced run.

    ``setup`` / ``timed`` are :func:`harness.aggregate` results of the
    traced set-up and of the traced blocks; ``modelled`` the counter
    deltas over those blocks; ``ops`` the attempted operations in them.
    """
    def calls(name: str) -> int:
        return timed.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name: str) -> float:
        source = setup if name in SETUP_FUNCTIONS else timed
        return source.get(name, (0, 0.0, 0.0))[1] * 1e3

    def total_ms(name: str) -> float:
        return timed.get(name, (0, 0.0, 0.0))[2] * 1e3

    out: Dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls(base)
        elif stat == "self_ms" and base != "membership":
            out[metric] = self_ms(base)
    sums = rec.sums
    out["chord.lookup.hops_per_call"] = _ratio(
        sums["chord.lookup.hops"], calls("chord.lookup"))
    out["kad.lookup.rpcs_per_call"] = _ratio(
        sums["kad.lookup.rpcs"], calls("kad.lookup"))
    out["kad.lookup.rounds_per_call"] = _ratio(
        sums["kad.lookup.rounds"], calls("kad.lookup"))
    out["network.messages_per_op"] = _ratio(modelled["messages"], ops)
    out["network.bytes_per_op"] = _ratio(modelled["bytes"], ops)
    out["network.failures"] = modelled["failures"]
    out["network.rpc_success_ratio"] = _ratio(
        sums["network.rpc_issue.ok"], calls("network.rpc_issue"))
    out["sim.events"] = modelled["events"]
    out["sim.events_per_advance"] = _ratio(modelled["events"],
                                           calls("sim.run"))
    # SWIM's ticks are private, so membership time is what is left of the
    # kernel's advance after the repair rounds and the churn flips.
    out["membership.self_ms"] = max(0.0, total_ms("sim.run")
                                    - total_ms("storage2.repair_round")
                                    - total_ms("churn.flip"))
    out["membership.pings"] = modelled["membership.pings"]
    out["membership.indirect_chains"] = modelled["membership.indirect_chains"]
    out["membership.confirms"] = modelled["membership.confirms"]
    out["membership.messages"] = modelled["swim_messages"]
    out["storage2.read_repairs"] = modelled["storage.read_repairs"]
    out["storage2.repair_pulls"] = modelled["storage.repair_pulls"]
    out["storage2.re_replications"] = modelled["storage.re_replications"]
    out["cache.hit_ratio"] = _ratio(
        modelled["cache.hits"],
        modelled["cache.hits"] + modelled["cache.misses"])
    out["cache.prefetched"] = modelled["cache.prefetched"]
    out["dosn.feed.items_per_call"] = _ratio(sums["dosn.feed.items"],
                                             calls("dosn.feed"))
    roots = [name for name in timed if name.startswith("op.")]
    out["unattributed_ms_per_op"] = _ratio(
        sum(timed[name][1] for name in roots) * 1e3, ops)
    out["tracing_overhead_ratio"] = overhead_ratio
    return out
