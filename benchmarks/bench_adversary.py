"""Experiment E19 — routing-layer adversary vs. secure-lookup defenses.

Paper claim (Section V): in a DHT-based DOSN "malicious nodes can drop,
misroute or forge routing messages", and the countermeasures the
literature offers are certified node identifiers, redundant/disjoint
routing, and excluding detected liars.  E19 quantifies both halves: a
seed-deterministic :class:`repro.adversary.AdversaryModel` compromises a
swept fraction of the peers (misroute-to-accomplice, forged closest-node
sets, drops, chosen node ids), and every fraction is measured twice —

* ``bare``     — the legacy lookup path, which believes whatever a
  responder claims (self-reported node ids included);
* ``defended`` — node-id certification + disjoint-path lookups with
  majority settling + quarantine of provably-lying peers.

Reported per cell: correct-lookup rate (the answer matches the true
owner / true closest node), wrong-answer (eclipse) rate, failure rate,
and message cost per lookup — the defense's overhead is part of the
result, not a footnote.

The whole experiment is deterministic from its seed: the acceptance test
runs the headline cell twice and requires byte-identical results.  The
adversary's own decisions are hash-derived (zero RNG draws), so bare and
defended cells face the *same* attack pattern.
"""

from __future__ import annotations

from _reporting import report_table
from repro.adversary import AdversaryConfig, DefenseConfig
from repro.exceptions import LookupError_
from repro.fabric import Fabric
from repro.overlay.chord import ChordRing
from repro.overlay.kademlia import KademliaOverlay, kad_id, xor_distance

N = 64         # peers
KEYS = 20      # distinct keys looked up
LOOKUPS = 50   # lookups per cell
SEED = 2016
FRACTIONS = (0.0, 0.1, 0.2, 0.3)
MODES = ("bare", "defended")


def _peers():
    return [f"p{i}" for i in range(N)]


def _config(fraction: float, mode: str) -> AdversaryConfig:
    """One cell's adversary config.

    The fraction-0 rows keep the adversary installed (it compromises
    nobody) so the defended column prices the defense machinery itself —
    disjoint paths cost messages even when every peer is honest.
    """
    return AdversaryConfig(
        fraction=fraction,
        defense=DefenseConfig() if mode == "defended" else None)


def _honest_start(adv, j: int) -> str:
    """A deterministic honest query origin (victims run the lookups)."""
    base = (3 * j + 1) % N
    for off in range(N):
        name = f"p{(base + off) % N}"
        if adv is None or not adv.compromised(name):
            return name
    raise AssertionError("no honest peer left")


def _chord_cell(fraction: float, mode: str):
    fab = Fabric.create(seed=SEED, adversary=_config(fraction, mode))
    net = fab.network
    ring = ChordRing(fab, successor_list_size=4, replication=3)
    for name in _peers():
        ring.add_node(name)
    ring.build()
    adv = fab.adversary
    truth = {f"key{i}": ring.owner_of(f"key{i}") for i in range(KEYS)}
    net.stats.reset()
    correct = wrong = failed = 0
    for j in range(LOOKUPS):
        key = f"key{j % KEYS}"
        start = _honest_start(adv, j)
        try:
            res = ring.lookup(start, key)
        except LookupError_:
            failed += 1
            continue
        if res.owner == truth[key]:
            correct += 1
        else:
            wrong += 1
    return {
        "correct": correct / LOOKUPS,
        "eclipsed": wrong / LOOKUPS,
        "failed": failed / LOOKUPS,
        "msgs_per_lookup": net.stats.messages / LOOKUPS,
        "quarantined": len(adv.quarantine.banned)
        if adv is not None and adv.quarantine is not None else 0,
    }


def _kad_cell(fraction: float, mode: str):
    fab = Fabric.create(seed=SEED, adversary=_config(fraction, mode))
    net = fab.network
    overlay = KademliaOverlay(fab)
    for name in _peers():
        overlay.add_node(name)
    overlay.bootstrap()
    adv = fab.adversary
    names = list(overlay.nodes)
    truth = {}
    for i in range(KEYS):
        key = f"key{i}"
        tid = kad_id(key)
        truth[key] = min(names,
                         key=lambda n: xor_distance(kad_id(n), tid))
    net.stats.reset()
    correct = wrong = failed = 0
    for j in range(LOOKUPS):
        key = f"key{j % KEYS}"
        start = _honest_start(adv, j)
        try:
            res = overlay.lookup(start, key)
        except LookupError_:
            failed += 1
            continue
        if res.closest and res.closest[0] == truth[key]:
            correct += 1
        else:
            wrong += 1
    return {
        "correct": correct / LOOKUPS,
        "eclipsed": wrong / LOOKUPS,
        "failed": failed / LOOKUPS,
        "msgs_per_lookup": net.stats.messages / LOOKUPS,
        "quarantined": len(adv.quarantine.banned)
        if adv is not None and adv.quarantine is not None else 0,
    }


def test_chord_adversary_sweep(benchmark):
    """E19 main table: Chord lookup integrity vs. compromised fraction."""

    def sweep():
        rows = []
        cells = {}
        for fraction in FRACTIONS:
            for mode in MODES:
                cell = _chord_cell(fraction, mode)
                cells[(fraction, mode)] = cell
                rows.append((f"{fraction:.0%}", mode, cell["correct"],
                             cell["eclipsed"], cell["failed"],
                             cell["msgs_per_lookup"], cell["quarantined"]))
        return rows, cells

    rows, cells = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Fair weather: with nobody compromised, both modes answer correctly.
    assert cells[(0.0, "bare")]["correct"] == 1.0
    assert cells[(0.0, "defended")]["correct"] == 1.0
    # The attack works against the bare client: at 20% compromised the
    # correct-rate degrades materially below the defended one.
    assert cells[(0.2, "bare")]["correct"] <= \
        cells[(0.2, "defended")]["correct"] - 0.15
    # The acceptance bar: certification + disjoint paths + quarantine
    # hold >= 95% correct lookups at 20% adversarial peers.
    assert cells[(0.2, "defended")]["correct"] >= 0.95
    report_table(
        "E19_adversary",
        "E19 — Chord lookups under an active routing adversary",
        ["Compromised", "Mode", "Correct rate", "Eclipsed rate",
         "Failed rate", "Msgs/lookup", "Quarantined"],
        rows,
        note=("Bare lookups believe forged owner claims and misroutes, so "
              "the eclipse rate tracks the compromised fraction; certified "
              "node ids (id = H(identity material)) make positions "
              "unforgeable, disjoint paths out-vote certified-but-lying "
              "resolvers, and quarantine removes caught liars from route "
              "selection.  The defense pays its message premium openly — "
              "Msgs/lookup roughly multiplies by the path redundancy."))


def test_kademlia_adversary_sweep(benchmark):
    """E19b: the same sweep against the XOR-metric overlay."""

    def sweep():
        rows = []
        cells = {}
        for fraction in FRACTIONS:
            for mode in MODES:
                cell = _kad_cell(fraction, mode)
                cells[(fraction, mode)] = cell
                rows.append((f"{fraction:.0%}", mode, cell["correct"],
                             cell["eclipsed"], cell["failed"],
                             cell["msgs_per_lookup"], cell["quarantined"]))
        return rows, cells

    rows, cells = benchmark.pedantic(sweep, rounds=1, iterations=1)

    assert cells[(0.0, "bare")]["correct"] == 1.0
    assert cells[(0.0, "defended")]["correct"] == 1.0
    assert cells[(0.2, "bare")]["correct"] <= \
        cells[(0.2, "defended")]["correct"] - 0.15
    assert cells[(0.2, "defended")]["correct"] >= 0.95
    report_table(
        "E19b_kad_adversary",
        "E19b — Kademlia lookups under the same adversary",
        ["Compromised", "Mode", "Correct rate", "Eclipsed rate",
         "Failed rate", "Msgs/lookup", "Quarantined"],
        rows,
        note=("Kademlia's bare client sorts its shortlist by self-reported "
              "node ids, so forged closest-sets pull the lookup toward "
              "accomplices; certification pins every id to its identity "
              "material and the defended lookup unions the certified "
              "closest-sets of disjoint paths, re-sorted by true XOR "
              "distance."))


def test_headline_cell_deterministic(benchmark):
    """Two runs of the acceptance cell must be byte-identical (seeded)."""

    def run_twice():
        first = _chord_cell(0.2, "defended")
        second = _chord_cell(0.2, "defended")
        return first, second

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert repr(first) == repr(second)
