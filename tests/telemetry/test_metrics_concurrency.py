"""Concurrent scrape-vs-mutate: /metrics under registry churn.

Four scraper threads hammer the metrics endpoint while a mutator keeps
creating instruments and folding observations (with exemplars) — the
shape of a real deployment where Prometheus scrapes mid-offload. Every
response must parse as complete, well-formed exposition text; no tearing,
no duplicate TYPE lines, no exceptions surfacing as 500s.
"""

import sys
import threading
import urllib.request

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.promexport import MetricsServer
from repro.telemetry.recorder import Recorder
from repro.telemetry.sampling import complete_offload

SCRAPERS = 4
SCRAPES_PER_THREAD = 25


def test_concurrent_scrapes_while_registry_mutates():
    reg = MetricsRegistry()
    stop = threading.Event()
    mutator_error: list[BaseException] = []

    def mutate():
        i = 0
        try:
            while not stop.is_set():
                i += 1
                reg.counter(f"offload.issued").inc()
                reg.counter(f"target.errors.{i % 3 + 1}").inc(i % 2)
                reg.gauge(f"window.in_flight").set(i % 7)
                reg.gauge(f"health.node_state.{i % 3 + 1}").set(1.0)
                hist = reg.log_histogram(
                    f"target.reply.{i % 3 + 1}", exemplars=True)
                hist.observe(0.001 * (i % 50 + 1), trace_id=f"{i:08x}")
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            mutator_error.append(exc)

    srv = MetricsServer(reg.snapshot)
    mutator = threading.Thread(target=mutate, daemon=True)
    mutator.start()
    bodies: list[str] = []
    errors: list[BaseException] = []

    def scrape():
        try:
            for _ in range(SCRAPES_PER_THREAD):
                with urllib.request.urlopen(
                        srv.url + "/metrics", timeout=10) as rsp:
                    assert rsp.status == 200
                    bodies.append(rsp.read().decode())
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    try:
        scrapers = [threading.Thread(target=scrape) for _ in range(SCRAPERS)]
        for thread in scrapers:
            thread.start()
        for thread in scrapers:
            thread.join(timeout=60)
            assert not thread.is_alive(), "scraper wedged"
    finally:
        stop.set()
        mutator.join(timeout=10)
        srv.close()

    assert not errors, errors
    assert not mutator_error, mutator_error
    assert len(bodies) == SCRAPERS * SCRAPES_PER_THREAD
    for body in bodies:
        assert body.endswith("\n")
        seen_types: set[str] = set()
        for line in body.splitlines():
            if line.startswith("# TYPE "):
                metric = line.split()[2]
                # A torn snapshot would render one family twice.
                assert metric not in seen_types, f"duplicate TYPE {metric}"
                seen_types.add(metric)
    # The mutator made progress while being scraped.
    final = reg.snapshot()
    assert final["counters"]["offload.issued"] > 0
    assert any(name.startswith("target.reply.")
               for name in final["histograms"])


def test_racing_first_use_gets_one_instrument_and_loses_nothing():
    """Get-or-create under a lock-free hit: threads that first-use a name
    together must all end up on one instrument — a second one minted for
    the same name would swallow its creator's updates."""
    threads, rounds, per_round = 8, 200, 5
    reg = MetricsRegistry()
    barrier = threading.Barrier(threads)
    seen: list[set[int]] = [set() for _ in range(rounds)]
    errors: list[BaseException] = []

    def work():
        try:
            for r in range(rounds):
                barrier.wait(timeout=30)  # everybody first-uses round r at once
                counter = reg.counter(f"c.{r}")
                gauge = reg.gauge(f"g.{r}")
                hist = reg.log_histogram(f"h.{r}", exemplars=True)
                seen[r].update((id(counter), id(gauge), id(hist)))
                for _ in range(per_round):
                    reg.counter(f"c.{r}").inc()
                    reg.gauge(f"g.{r}").add(1.0)
                    reg.log_histogram(f"h.{r}").observe(0.001, trace_id="ab")
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive(), "worker wedged"
    finally:
        sys.setswitchinterval(interval)

    assert not errors, errors
    assert all(len(ids) == 3 for ids in seen)  # one of each kind per name
    snap = reg.snapshot()
    expected = threads * per_round
    assert set(snap["counters"].values()) == {expected}
    assert set(snap["gauges"].values()) == {float(expected)}
    assert {h["count"] for h in snap["histograms"].values()} == {expected}
    assert len(snap["counters"]) == len(snap["histograms"]) == rounds


def _racy_dict(threads: int) -> type[dict]:
    """A dict whose ``get`` holds every miss until all ``threads`` have
    missed (or half a second passed): the forced first-use race."""
    barrier = threading.Barrier(threads)

    class Racy(dict):
        def get(self, key, default=None):
            value = super().get(key, default)
            if value is None:
                try:
                    barrier.wait(timeout=0.5)  # until everybody has missed
                except threading.BrokenBarrierError:
                    pass
            return value

    return Racy


def test_forced_first_use_race_still_mints_one_instrument():
    """The same race, forced: every thread reads "missing" before any of
    them creates. Only the re-check under the registry lock keeps that to
    one instrument per name."""
    threads = 4
    reg = MetricsRegistry()
    Racy = _racy_dict(threads)
    reg._counters, reg._gauges, reg._histograms = Racy(), Racy(), Racy()
    got: list[tuple[int, int, int]] = []

    def first_use():
        counter = reg.counter("c")
        gauge = reg.gauge("g")
        hist = reg.log_histogram("h")
        counter.inc()
        gauge.add(1.0)
        hist.observe(0.001)
        got.append((id(counter), id(gauge), id(hist)))

    workers = [threading.Thread(target=first_use) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert not worker.is_alive(), "worker wedged"
    assert len(got) == threads and len(set(got)) == 1
    snap = reg.snapshot()
    assert snap["counters"] == {"c": threads}
    assert snap["gauges"] == {"g": float(threads)}
    assert snap["histograms"]["h"]["count"] == threads


def test_forced_first_completion_race_mints_one_series_per_kernel():
    """A kernel's instruments are resolved once per kernel, in a cache
    beside the registry: completions of a new kernel that all miss the
    cache (and the registry) together must still land in one
    ``kernel.<k>.offload`` and one ``kernel.<k>.errors``."""
    threads = 4
    rec = Recorder()
    Racy = _racy_dict(threads)
    rec._kernel_hists = Racy()
    rec.metrics._counters, rec.metrics._histograms = Racy(), Racy()

    def complete():
        complete_offload(None, kernel="k", duration_ns=1_000_000, error=True,
                         recorder=rec)

    workers = [threading.Thread(target=complete) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert not worker.is_alive(), "worker wedged"
    snap = rec.metrics.snapshot()
    assert snap["histograms"]["kernel.k.offload"]["count"] == threads
    assert snap["counters"] == {"kernel.k.errors": threads}
    assert rec.kernel_offload("k") is rec.metrics.log_histogram(
        "kernel.k.offload")
