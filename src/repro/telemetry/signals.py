"""The one table of metric series: name, kind, unit, help, consumer.

Every series the recorder's registry may hold is declared in
:data:`SIGNALS`, by exact name (``offload.issued``) or as a family with
``<label>`` placeholders (``target.reply.<node>``), each standing for any
non-empty text, dots included. The registry asks
:meth:`SignalRegistry.check` before it *creates* an instrument, never on
a hit. ``# HELP`` / ``# UNIT`` on ``/metrics`` and the "Metrics" table of
``docs/observability.md`` (``python -m repro.telemetry.signals``) are
generated from the same rows.

One rule decides every row. A series stays when code reads it, when a
documented procedure names it, or when it is the only place its number
is held — then the consumer is the operator's scrape and the row says
what only it answers. A series that mirrors a number a ``stats()`` /
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

    Families are tried in declaration order, so a more specific one
    (``kernel.<kernel>.errors``) is declared ahead of the one that would
    swallow it (``kernel.<kernel>.<phase>``).
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
_TOP = "`repro top` SERIES headline (`inspect.TSDB_HEADLINES`)"
_SCRAPE = "operator scrape of `/metrics`: "
_TAIL = "docs/observability.md, Sampling: every tail verdict is accounted for"
_SLO = "docs/observability.md, SLOs: the alerting surface on `/metrics`"
_KERNEL = "per-kernel scrape of `/metrics`; offline twin `report --profile`, "

SIGNALS = SignalRegistry((
    # -- the offload path ---------------------------------------------------
    _ROW("offload.issued", "counter", "offloads",
         "invocations posted to a backend", _TOP),
    _ROW("offload.issue_failures", "counter", "offloads",
         "posts a transport refused before anything left the host",
         _SCRAPE + "the only count of offloads that never settled"),
    _ROW("offload.callback_errors", "counter", "errors",
         "exceptions swallowed in a completion callback",
         _SCRAPE + "the only trace such an exception leaves"),
    _ROW("future.settled", "counter", "offloads",
         "futures and syncs that reached a result or an error", _TOP),
    _ROW("future.timeouts", "counter", "offloads",
         "`Future.get` and sync deadlines that expired (the offload may land)",
         _SCRAPE + "raw count behind the availability SLO's burn"),
    _ROW("<transport>.unmatched_replies", "counter", "frames",
         "replies whose correlation id had no waiter left (late or invented)",
         "docs/architecture.md, late replies: the only trace of a dropped one"),
    # -- data plane and target memory ---------------------------------------
    _ROW("data.bytes_put", "counter", "bytes", "payload of `put` transfers",
         _SCRAPE + "data-plane volume, bandwidth by `rate()`"),
    _ROW("data.bytes_got", "counter", "bytes", "payload of `get` transfers",
         _SCRAPE + "data-plane volume, bandwidth by `rate()`"),
    _ROW("data.bytes_copied", "counter", "bytes",
         "payload of target-to-target `copy` transfers",
         _SCRAPE + "data-plane volume, bandwidth by `rate()`"),
    _ROW("buffers.leaked", "counter", "buffers",
         "buffers still live at `Runtime.shutdown()`",
         _SCRAPE + "the leak the shutdown `ResourceWarning` names"),
    # -- resilience ---------------------------------------------------------
    _ROW("health.transitions", "counter", "transitions",
         "health state changes of any node", _SCRAPE + "circuit-breaker flapping"),
    _ROW("health.circuit_opened", "counter", "transitions",
         "transitions into `down`", _SCRAPE + "how often a circuit opened"),
    _ROW("health.circuit_rejections", "counter", "offloads",
         "operations refused because the node's circuit was open",
         _SCRAPE + "work lost to an open circuit"),
    _ROW("health.node_state.<node>", "gauge", "state",
         "0 healthy, 1 degraded, 2 down",
         "docs/observability.md: circuit state by scrape, "
         "`repro_health_node_state_1 2`"),
    _ROW("health.consecutive_failures.<node>", "gauge", "failures",
         "failures in a row on the node",
         "docs/observability.md: distance to the next health transition"),
    _ROW("reactor.loop_lag_us", "gauge", "us",
         "how late the coalescer's deadline timer ran its last deadline", _TOP),
    # -- telemetry about itself ---------------------------------------------
    _ROW("telemetry.pull_failures", "counter", "pulls",
         "target-telemetry pulls that failed at shutdown",
         "docs/observability.md, docs/resilience.md: a wedged target's spans "
         "are missing from the trace"),
    _ROW("trace.tail_dropped", "counter", "traces",
         "unsampled traces dropped at the tail verdict", _TAIL),
    _ROW("trace.tail_retained", "counter", "traces",
         "unsampled traces promoted into the ring", _TAIL),
    _ROW("trace.tail_retained_error", "counter", "traces",
         "… because the offload failed", _TAIL),
    _ROW("trace.tail_retained_slow", "counter", "traces",
         "… because it ran slower than the rolling p99", _TAIL),
    _ROW("slo.<slo>.fast_burn", "gauge", "ratio",
         "error-budget burn rate over the fast window "
         "(per tenant: `slo.<slo>.tenant.<tenant>.fast_burn`)", _SLO),
    _ROW("slo.<slo>.slow_burn", "gauge", "ratio",
         "the same over the slow window", _SLO),
    _ROW("slo.<slo>.breached", "gauge", "bool",
         "1 while both windows burn above the threshold", _SLO),
    _ROW("anomaly.score.<series>", "gauge", "score",
         "median/MAD score of a scoreboard series at the last TSDB tick",
         "docs/observability.md, Anomaly detection: the score below the "
         "threshold, which `anomalies()` does not list"),
    _ROW("perfbench.probe", "counter", "calls",
         "the benchmark's probe of one `telemetry.count`",
         "perfbench/layers.py: the `telemetry.count_on_ns` row (goes once "
         "the probe counts a product series; perfbench/ is frozen per PR)"),
    # -- latency: per phase, per target, per kernel -------------------------
    _ROW("phase.<span>", "histogram", "seconds",
         "duration of every finished span of that name, sampled or not; "
         "buckets carry exemplars",
         "`/metrics` phase latencies with trace exemplars; "
         "`phase.perfbench.probe` is perfbench's `telemetry.span_on_ns`"),
    _ROW("target.reply.<node>", "histogram", "seconds",
         "round trips by the node they were posted to (only with a TSDB)",
         "`tsdb.Scoreboard` `reply_p95`; the anomaly detector; the hedger's "
         "destination ranking"),
    _ROW("target.errors.<node>", "counter", "offloads",
         "failed round trips by node (only with a TSDB)",
         "`tsdb.Scoreboard`: `target.error_rate.<node>`"),
    _ROW("kernel.<kernel>.errors", "counter", "offloads",
         "failed round trips of the kernel", _KERNEL + "column `errors`"),
    _ROW("kernel.<kernel>.bytes", "counter", "bytes",
         "INVOKE message bytes built for the kernel", _KERNEL + "column `bytes`"),
    _ROW("kernel.<kernel>.offload", "histogram", "seconds",
         "issue → result round trip of every offload of the kernel",
         "`recorder.kernel_percentile`: QoS deadline admission, the hedger's "
         "trigger; `report --profile`"),
    _ROW("kernel.<kernel>.<phase>", "histogram", "seconds",
         "the kernel's span durations by phase, fed at the tail verdict "
         "(unsampled traces only)", _KERNEL + "`--format json`, `phases`"),
))

if __name__ == "__main__":  # pragma: no cover
    print(SIGNALS.markdown(), end="")
