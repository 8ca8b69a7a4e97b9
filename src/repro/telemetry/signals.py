"""The one table of metric series: name, kind, unit, help, consumer.

Every series the recorder's registry may hold is declared in
:data:`SIGNALS`, by exact name (``offload.issued``) or as a family with
``<label>`` placeholders (``health.node_state.<node>``), each standing for any
non-empty text, dots included. The registry asks
:meth:`SignalRegistry.check` before it *creates* an instrument, never on
a hit. The "Metrics" table of ``docs/observability.md`` (``python -m
repro.telemetry.signals``) is generated from the same rows.

One rule decides every row. A series stays when code reads it, when a
documented procedure names it, or when it is the only place its number
is held — then the consumer is a crash bundle's ``metrics.json`` (the
registry snapshot a post-mortem reads) and the row says what only it
answers. A series that mirrors a number a ``stats()`` /
``snapshot()`` dict or another series already holds is deleted with its
call sites, not declared (``tests/telemetry/test_signals.py`` holds the
table to the source).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

__all__ = ["SIGNALS", "SignalDescriptor", "SignalRegistry"]


class SignalDescriptor(NamedTuple):
    """One declared series (or family of series)."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    help: str
    consumer: str


class SignalRegistry:
    """Name -> :class:`SignalDescriptor`, exact names before families.

    Families are tried in declaration order: the first that matches
    declares the name.
    """

    def __init__(self, signals: tuple[SignalDescriptor, ...]) -> None:
        self._signals = signals
        self._exact = {s.name: s for s in signals if "<" not in s.name}
        #: (text before the first placeholder, text after the last, row)
        self._families = [
            (s.name[:s.name.index("<")], s.name[s.name.rindex(">") + 1:], s)
            for s in signals if "<" in s.name
        ]

    def __iter__(self) -> Iterator[SignalDescriptor]:
        return iter(self._signals)

    def resolve(self, name: str, kind: str = "") -> SignalDescriptor | None:
        """The first row declaring ``name`` (as a ``kind``, if given), or
        ``None``. Labels are free text, so a name can match rows of two
        kinds: the span ``copy.bytes`` of kernel ``k`` is the histogram
        ``kernel.k.copy.bytes`` although ``kernel.<kernel>.bytes`` fits."""
        signal = self._exact.get(name)
        if signal is not None and kind in ("", signal.kind):
            return signal
        for prefix, suffix, signal in self._families:
            if (name.startswith(prefix) and name.endswith(suffix)
                    and len(name) > len(prefix) + len(suffix)
                    and kind in ("", signal.kind)):
                return signal
        return None

    def check(self, name: str, kind: str) -> None:
        """Raise unless some row declares ``name`` as a ``kind``."""
        if self.resolve(name, kind) is not None:
            return
        signal = self.resolve(name)
        if signal is None:
            raise LookupError(
                f"metric series {name!r} is not declared in "
                "repro.telemetry.signals")
        raise TypeError(
            f"metric series {name!r} is declared as a {signal.kind} "
            f"({signal.name!r}), not a {kind}")

    def markdown(self) -> str:
        """The table as GitHub markdown (``docs/observability.md``)."""
        rows = [f"| `{s.name}` | {s.kind} | {s.unit} | {s.help} | {s.consumer} |"
                for s in self]
        return "\n".join(["| series | kind | unit | meaning | read by |",
                          "|---|---|---|---|---|", *rows]) + "\n"


_ROW = SignalDescriptor
_BUNDLE = "a crash bundle's `metrics.json`: "
_KERNEL = "a crash bundle's `metrics.json`; offline twin `report --profile`, "

SIGNALS = SignalRegistry((
    # -- the offload path ---------------------------------------------------
    _ROW("offload.issued", "counter", "offloads",
         "invocations posted to a backend",
         _BUNDLE + "offloads issued before the dump"),
    _ROW("offload.issue_failures", "counter", "offloads",
         "posts a transport refused before anything left the host",
         _BUNDLE + "the only count of offloads that never settled"),
    _ROW("offload.callback_errors", "counter", "errors",
         "exceptions swallowed in a completion callback",
         _BUNDLE + "the only trace such an exception leaves"),
    _ROW("future.settled", "counter", "offloads",
         "futures and syncs that reached a result or an error",
         _BUNDLE + "issued minus settled is what never came back"),
    _ROW("future.timeouts", "counter", "offloads",
         "`Future.get` and sync deadlines that expired (the offload may land)",
         _BUNDLE + "deadline misses; `scripts/chaos_smoke.py` counts them as failures"),
    _ROW("<transport>.unmatched_replies", "counter", "frames",
         "replies whose correlation id had no waiter left (late or invented)",
         "docs/architecture.md, late replies: the only trace of a dropped one"),
    # -- data plane and target memory ---------------------------------------
    _ROW("data.bytes_put", "counter", "bytes", "payload of `put` transfers",
         _BUNDLE + "data-plane volume"),
    _ROW("data.bytes_got", "counter", "bytes", "payload of `get` transfers",
         _BUNDLE + "data-plane volume"),
    _ROW("data.bytes_copied", "counter", "bytes",
         "payload of target-to-target `copy` transfers",
         _BUNDLE + "data-plane volume"),
    _ROW("buffers.leaked", "counter", "buffers",
         "buffers still live at `Runtime.shutdown()`",
         _BUNDLE + "the leak the shutdown `ResourceWarning` names"),
    # -- resilience ---------------------------------------------------------
    _ROW("health.transitions", "counter", "transitions",
         "health state changes of any node", _BUNDLE + "circuit-breaker flapping"),
    _ROW("health.circuit_opened", "counter", "transitions",
         "transitions into `down`", _BUNDLE + "how often a circuit opened"),
    _ROW("health.circuit_rejections", "counter", "offloads",
         "operations refused because the node's circuit was open",
         _BUNDLE + "work lost to an open circuit"),
    _ROW("health.node_state.<node>", "gauge", "state",
         "0 healthy, 1 degraded, 2 down",
         "docs/observability.md: circuit state in a bundle's `metrics.json`"),
    _ROW("health.consecutive_failures.<node>", "gauge", "failures",
         "failures in a row on the node",
         "docs/observability.md: distance to the next health transition"),
    # -- telemetry about itself ---------------------------------------------
    _ROW("perfbench.probe", "counter", "calls",
         "the benchmark's probe of one `telemetry.count`",
         "perfbench/layers.py: the `telemetry.count_on_ns` row (goes once "
         "the probe counts a product series; perfbench/ is frozen per PR)"),
    # -- latency: per phase, per kernel --------------------------------------
    _ROW("phase.<span>", "histogram", "seconds",
         "duration of every finished span of that name",
         _BUNDLE + "phase latencies past the trace ring's horizon; "
         "`phase.perfbench.probe` is perfbench's `telemetry.span_on_ns`"),
    _ROW("kernel.<kernel>.errors", "counter", "offloads",
         "failed round trips of the kernel", _KERNEL + "column `errors`"),
    _ROW("kernel.<kernel>.bytes", "counter", "bytes",
         "INVOKE message bytes built for the kernel", _KERNEL + "column `bytes`"),
    _ROW("kernel.<kernel>.offload", "histogram", "seconds",
         "issue → result round trip of every offload of the kernel",
         "`report --profile`"),
))

if __name__ == "__main__":  # pragma: no cover
    print(SIGNALS.markdown(), end="")
