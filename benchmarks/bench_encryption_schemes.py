"""Experiment E2 — relative cost of the six data-privacy solutions.

Paper claims reproduced (Section III):

* "Since symmetric encryption methods use simpler operations, they have the
  advantage of running faster in comparison to other schemes."
* ABE/IBBE pay pairing-level costs per operation regardless of audience.
* Public-key wrapping scales linearly with group size; IBBE headers do not.
* Hybrid encryption "combines the convenience of a public-key encryption
  with the high speed of a symmetric-key encryption": for large payloads
  every hybrid converges to symmetric throughput.

Timed micro-benchmarks (publish/read per scheme) carry the pytest-benchmark
numbers; the sweep table records header growth and operation counters over
group sizes.
"""

from __future__ import annotations

import random

import pytest

from _reporting import report_table
from repro.acl import SCHEME_REGISTRY

MESSAGE = b"x" * 1024
GROUP_SIZES = (2, 8, 32)


def build_scheme(name, members):
    kwargs = {}
    if name == "ibbe":
        kwargs["max_group_size"] = 64
    scheme = SCHEME_REGISTRY[name](rng=random.Random(0xE2), **kwargs)
    scheme.create_group("g", [f"u{i}" for i in range(members)])
    return scheme


@pytest.mark.parametrize("name", sorted(SCHEME_REGISTRY))
def test_publish_latency(benchmark, name):
    """Per-scheme publish (encrypt) latency at group size 16, 1 KiB."""
    scheme = build_scheme(name, 16)
    counter = iter(range(10**9))

    def publish():
        scheme.publish("g", f"item{next(counter)}", MESSAGE)

    benchmark.pedantic(publish, rounds=10, iterations=1)


@pytest.mark.parametrize("name", sorted(SCHEME_REGISTRY))
def test_read_latency(benchmark, name):
    """Per-scheme read (decrypt) latency at group size 16, 1 KiB."""
    scheme = build_scheme(name, 16)
    scheme.publish("g", "item", MESSAGE)
    benchmark.pedantic(lambda: scheme.read("g", "item", "u3"),
                       rounds=10, iterations=1)


def test_header_growth_sweep(benchmark):
    """E2 table: header bytes and asymmetric ops vs. group size."""

    def sweep():
        rows = []
        for name in sorted(SCHEME_REGISTRY):
            for size in GROUP_SIZES:
                scheme = build_scheme(name, size)
                scheme.meter.reset()
                scheme.publish("g", "probe", MESSAGE)
                counts = scheme.meter.snapshot()
                rows.append((name, size,
                             counts.get("header_bytes", 0),
                             counts.get("pub_encrypt", 0),
                             counts.get("sym_encrypt", 0)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    by_scheme = {}
    for name, size, header, pub, sym in rows:
        by_scheme.setdefault(name, []).append((size, header, pub))
    # Paper-claim assertions (the "shape"):
    # symmetric: no header, no asymmetric ops
    assert all(h == 0 and p == 0 for _, h, p in by_scheme["symmetric"])
    # public-key: header and op count grow linearly with the group
    pk = by_scheme["public-key"]
    assert pk[0][2] == 2 and pk[-1][2] == 32
    assert pk[-1][1] > 10 * pk[0][1] / 2
    # ibbe: constant header, one asymmetric op, independent of size
    ibbe = by_scheme["ibbe"]
    assert ibbe[0][1] == ibbe[-1][1] and all(p == 1 for _, _, p in ibbe)
    # abe: single encryption per item regardless of member count
    assert all(p == 1 for _, _, p in by_scheme["cp-abe"])

    report_table(
        "E2_encryption",
        "E2 — data-privacy schemes: header bytes / asym ops vs group size",
        ["Scheme", "Group size", "Header bytes", "Asym ops", "Sym ops"],
        rows,
        note=("Paper claims confirmed: symmetric fastest with zero header; "
              "public-key header grows O(n); ABE & IBBE need one asymmetric "
              "operation regardless of group size; IBBE header is constant."))


def test_hybrid_payload_scaling(benchmark):
    """Hybrid schemes converge to symmetric throughput for large payloads.

    The asymmetric KEM cost is fixed, so doubling the payload should not
    double hybrid latency the way it would if the whole payload were
    asymmetric-encrypted.  Each cell is the best of 5 publishes (as
    :mod:`timeit` reports), and the repeats are interleaved across the
    cells: the minimum is the run least disturbed by other load on the
    host, and interleaving gives every cell a sample from the same
    quiet stretch, so a slow spell cannot land on one cell alone.
    """
    import time

    def measure():
        cells = [(name, size) for size in (1024, 65536)
                 for name in ("symmetric", "hybrid")]
        schemes = {cell: build_scheme(cell[0], 8) for cell in cells}
        best = dict.fromkeys(cells, float("inf"))
        for i in range(5):
            for cell in cells:
                payload = b"y" * cell[1]
                start = time.perf_counter()
                schemes[cell].publish("g", f"i{i}", payload)
                best[cell] = min(best[cell], time.perf_counter() - start)
        return [(name, size, best[name, size] * 1000)
                for name, size in cells]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    timings = {(name, size): ms for name, size, ms in rows}
    small_gap = timings[("hybrid", 1024)] - timings[("symmetric", 1024)]
    big_gap = timings[("hybrid", 65536)] - timings[("symmetric", 65536)]
    # The absolute KEM overhead stays flat as payloads grow 64x.
    assert big_gap < 4 * max(small_gap, 0.5)
    report_table(
        "E2b_hybrid", "E2b — hybrid overhead is payload-independent",
        ["Scheme", "Payload bytes", "Publish ms"], rows,
        note="The fixed KEM cost amortizes: hybrid ~ symmetric + constant.")
