"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLO` states an objective over a phase of the offload path:
"99% of ``offload`` round trips finish under 50 ms", or "99.9% of
``offload`` attempts succeed" (``threshold_ns=None`` makes it an error
SLO). The :class:`SLOMonitor` evaluates each objective over two rolling
windows — a fast one that reacts within tens of operations and a slow
one that filters blips — and alerts only when *both* burn too hot, the
standard multi-window burn-rate recipe (Google SRE workbook, ch. 5).

Burn rate is ``bad_fraction / error_budget`` where the budget is
``1 - objective``: burn 1.0 consumes the budget exactly at the allowed
pace, burn >= ``burn_threshold`` (default 2.0) on both windows raises a
breach. Window sizes are counted in *operations*, not wall seconds —
the "5m-equivalent" fast and "1h-equivalent" slow windows of a
time-based alerting stack, made deterministic for tests and chaos runs.

Breaches surface three ways:

* ``telemetry.slo_breach`` / ``telemetry.slo_recovered`` events in the
  trace (``scripts/chaos_smoke.py`` asserts the former fires under
  injected faults);
* ``slo.<name>.fast_burn`` / ``slow_burn`` / ``breached`` gauges on the
  metrics snapshot (and thus ``/metrics``);
* :meth:`SLOMonitor.breached`, which the ``/healthz`` endpoint folds
  into a ``degraded`` status.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.telemetry import flightrecorder

__all__ = ["SLO", "SLOMonitor", "default_slos"]

#: Phase name carrying the whole issue->result round trip.
TOTAL_PHASE = "offload"


@dataclass(frozen=True, slots=True)
class SLO:
    """One objective over one phase of the offload path.

    Attributes
    ----------
    name:
        Alert identity (``offload-latency-p99``); also the gauge prefix.
    phase:
        Which duration stream feeds it: ``"offload"`` for the round
        trip, otherwise a span name (``"offload.execute"``).
    threshold_ns:
        An operation is *bad* when it runs longer than this; ``None``
        makes this an availability SLO where only errors are bad.
    objective:
        Target good fraction in ``(0, 1)`` — 0.99 allows a 1% budget.
    """

    name: str
    phase: str
    threshold_ns: int | None
    objective: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("SLO needs a name")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.threshold_ns is not None and self.threshold_ns <= 0:
            raise ValueError(
                f"threshold_ns must be positive, got {self.threshold_ns}"
            )

    def is_bad(self, duration_ns: int, error: bool) -> bool:
        if error:
            return True
        return self.threshold_ns is not None and duration_ns > self.threshold_ns


def default_slos() -> tuple[SLO, ...]:
    """A sane starter set: round-trip latency + availability."""
    return (
        SLO(name="offload-latency", phase=TOTAL_PHASE,
            threshold_ns=250_000_000, objective=0.99),
        SLO(name="offload-availability", phase=TOTAL_PHASE,
            threshold_ns=None, objective=0.99),
    )


class _SLOState:
    """Rolling windows with O(1) burn math — this sits on the hot path.

    Bad counts are maintained incrementally on push/evict rather than
    summed per observe, so one completion costs two deque appends, not a
    600-element walk of the slow window.
    """

    __slots__ = (
        "slo", "fast", "slow", "fast_window", "slow_window",
        "fast_bad", "slow_bad", "breached", "total", "bad", "gauges",
        "published",
    )

    def __init__(self, slo: SLO, fast_window: int, slow_window: int) -> None:
        self.slo = slo
        self.fast: deque[int] = deque()
        self.slow: deque[int] = deque()
        self.fast_window = fast_window
        self.slow_window = slow_window
        self.fast_bad = 0
        self.slow_bad = 0
        self.breached = False
        self.total = 0
        self.bad = 0
        self.gauges: tuple[Any, Any, Any] | None = None
        #: The (fast burn, slow burn, breached) last stored in ``gauges``.
        self.published: tuple[float, float, bool] | None = None

    def push(self, bad: int) -> None:
        self.fast.append(bad)
        self.fast_bad += bad
        if len(self.fast) > self.fast_window:
            self.fast_bad -= self.fast.popleft()
        self.slow.append(bad)
        self.slow_bad += bad
        if len(self.slow) > self.slow_window:
            self.slow_bad -= self.slow.popleft()
        self.total += 1
        self.bad += bad

    def fast_burn(self, budget: float) -> float:
        if not self.fast:
            return 0.0
        return (self.fast_bad / len(self.fast)) / budget

    def slow_burn(self, budget: float) -> float:
        if not self.slow:
            return 0.0
        return (self.slow_bad / len(self.slow)) / budget


class SLOMonitor:
    """Evaluates a set of SLOs over rolling operation windows.

    Parameters
    ----------
    slos:
        The objectives; see :func:`default_slos`.
    fast_window / slow_window:
        Window sizes in operations (the 5m-/1h-equivalents).
    burn_threshold:
        Both windows must burn at >= this rate to breach (2.0 means the
        error budget is being consumed at twice the sustainable pace).
    min_samples:
        Operations required in the fast window before alerting at all —
        keeps a single cold-start failure from paging.
    emit:
        ``emit(name, **attrs)`` event sink (the recorder's
        ``force_event``: both rings, past the sampling gate); receives
        ``telemetry.slo_breach`` / ``telemetry.slo_recovered``.
    metrics:
        A :class:`~repro.telemetry.metrics.MetricsRegistry` for the
        burn/breached gauges (optional).
    max_tenants:
        Cap on distinct per-tenant evaluation states (multi-tenant
        serving: each observed tenant gets its own rolling windows per
        SLO, so one noisy tenant pages alone instead of burning the
        global budget anonymously). Tenants beyond the cap fold into the
        global state only — bounded cardinality against tenant-id
        explosions.
    """

    def __init__(
        self,
        slos: Iterable[SLO] | None = None,
        *,
        fast_window: int = 50,
        slow_window: int = 600,
        burn_threshold: float = 2.0,
        min_samples: int = 10,
        emit: Callable[..., Any] | None = None,
        metrics: Any = None,
        max_tenants: int = 32,
    ) -> None:
        if fast_window < 1 or slow_window < fast_window:
            raise ValueError(
                f"need 1 <= fast_window <= slow_window, got "
                f"{fast_window}/{slow_window}"
            )
        if burn_threshold <= 0:
            raise ValueError(
                f"burn_threshold must be positive, got {burn_threshold}"
            )
        resolved = tuple(slos) if slos is not None else default_slos()
        names = [s.name for s in resolved]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.burn_threshold = burn_threshold
        self.min_samples = max(1, min_samples)
        self.emit = emit
        self.metrics = metrics
        self.max_tenants = max(0, max_tenants)
        self._fast_window = fast_window
        self._slow_window = slow_window
        self._lock = threading.Lock()
        self._states = {
            s.name: _SLOState(s, fast_window, slow_window) for s in resolved
        }
        #: (slo name, tenant) -> lazily created per-tenant state.
        self._tenant_states: dict[tuple[str, str], _SLOState] = {}
        self._tenants: set[str] = set()
        # Hot-path accelerators: observe() is called for every span fold
        # of every offload, so phases with no SLO must cost one dict get,
        # and gauge objects are resolved once, not per observe.
        self._by_phase: dict[str, tuple[_SLOState, ...]] = {}
        for state in self._states.values():
            phase_states = self._by_phase.get(state.slo.phase, ())
            self._by_phase[state.slo.phase] = phase_states + (state,)
            state.gauges = self._gauges(state.slo.name)
        #: The phases some objective listens to; the recorder's span
        #: fold asks before it calls :meth:`observe`.
        self.phases = frozenset(self._by_phase)

    @property
    def slos(self) -> tuple[SLO, ...]:
        return tuple(state.slo for state in self._states.values())

    def _gauges(self, name: str) -> tuple[Any, Any, Any] | None:
        if self.metrics is None:
            return None
        return (self.metrics.gauge(f"slo.{name}.fast_burn"),
                self.metrics.gauge(f"slo.{name}.slow_burn"),
                self.metrics.gauge(f"slo.{name}.breached"))

    # -- feeding -----------------------------------------------------------
    def _tenant_state_locked(
        self, state: _SLOState, tenant: str
    ) -> _SLOState | None:
        """Get-or-create the per-tenant twin of a global SLO state."""
        key = (state.slo.name, tenant)
        tstate = self._tenant_states.get(key)
        if tstate is None:
            if (tenant not in self._tenants
                    and len(self._tenants) >= self.max_tenants):
                return None
            self._tenants.add(tenant)
            tstate = self._tenant_states[key] = _SLOState(
                state.slo, self._fast_window, self._slow_window
            )
            tstate.gauges = self._gauges(f"{state.slo.name}.tenant.{tenant}")
        return tstate

    def _fold_locked(
        self,
        state: _SLOState,
        duration_ns: int,
        error: bool,
        tenant: str | None,
        transitions: list[tuple[SLO, bool, float, float, str | None]],
    ) -> None:
        slo = state.slo
        state.push(int(slo.is_bad(duration_ns, error)))
        budget = 1.0 - slo.objective
        # (fast_burn() / slow_burn() of windows the push left non-empty)
        fast_burn = (state.fast_bad / len(state.fast)) / budget
        slow_burn = (state.slow_bad / len(state.slow)) / budget
        breached = (
            len(state.fast) >= self.min_samples
            and fast_burn >= self.burn_threshold
            and slow_burn >= self.burn_threshold
        )
        if breached != state.breached:
            state.breached = breached
            transitions.append((slo, breached, fast_burn, slow_burn, tenant))
        # A healthy stream folds the same three values every time: the
        # gauges are stored (a lock each) only when one of them moved.
        published = (fast_burn, slow_burn, breached)
        if state.gauges is not None and published != state.published:
            state.published = published
            fast_g, slow_g, breached_g = state.gauges
            fast_g.set(fast_burn)
            slow_g.set(slow_burn)
            breached_g.set(1.0 if breached else 0.0)

    def observe(self, phase: str, duration_ns: int, *,
                error: bool = False, tenant: str | None = None) -> None:
        """Fold one finished operation of ``phase`` into its SLOs.

        With ``tenant`` set, the operation also feeds that tenant's own
        rolling windows: breach events then carry the tenant and name
        ``<slo>[<tenant>]``, so alerting distinguishes "tenant X is
        over budget" from "the service is over budget". The global
        (tenant-less) state is always fed.
        """
        states = self._by_phase.get(phase)
        if states is None:
            return
        transitions: list[tuple[SLO, bool, float, float, str | None]] = []
        with self._lock:
            for state in states:
                self._fold_locked(state, duration_ns, error, None, transitions)
                if tenant is not None:
                    tstate = self._tenant_state_locked(state, tenant)
                    if tstate is not None:
                        self._fold_locked(
                            tstate, duration_ns, error, tenant, transitions
                        )
        # Emit outside the lock: the sink is the recorder, which may
        # call back into metrics.
        for slo, breached, fast_burn, slow_burn, slo_tenant in transitions:
            if self.emit is None:
                continue
            name = ("telemetry.slo_breach" if breached
                    else "telemetry.slo_recovered")
            label = (slo.name if slo_tenant is None
                     else f"{slo.name}[{slo_tenant}]")
            attrs: dict[str, Any] = dict(
                slo=label, phase=slo.phase,
                fast_burn=round(fast_burn, 3),
                slow_burn=round(slow_burn, 3),
                objective=slo.objective,
            )
            if slo_tenant is not None:
                attrs["tenant"] = slo_tenant
            self.emit(name, **attrs)
            if breached:
                # When the burn rate pages, the evidence of *why* is the
                # recent control-plane event stream: capture it right now.
                flightrecorder.trigger("slo_breach", **attrs)

    # -- queries -----------------------------------------------------------
    def breached(self) -> list[str]:
        """Names of the SLOs currently in breach (healthz feeds on it).

        Per-tenant breaches appear as ``<slo>[<tenant>]`` next to the
        global names.
        """
        with self._lock:
            names = [name for name, state in self._states.items()
                     if state.breached]
            names += [f"{slo_name}[{tenant}]"
                      for (slo_name, tenant), state
                      in self._tenant_states.items() if state.breached]
            return names

    @staticmethod
    def _state_summary(state: _SLOState) -> dict[str, Any]:
        slo = state.slo
        budget = 1.0 - slo.objective
        return {
            "phase": slo.phase,
            "threshold_ns": slo.threshold_ns,
            "objective": slo.objective,
            "total": state.total,
            "bad": state.bad,
            "fast_burn": state.fast_burn(budget),
            "slow_burn": state.slow_burn(budget),
            "breached": state.breached,
        }

    def snapshot(self) -> dict[str, Any]:
        """Per-SLO burn state as a JSON-friendly dict.

        Per-tenant states land under ``<slo>[<tenant>]`` keys, each with
        its ``tenant`` recorded.
        """
        out: dict[str, Any] = {}
        with self._lock:
            for name, state in self._states.items():
                out[name] = self._state_summary(state)
            for (slo_name, tenant), state in self._tenant_states.items():
                summary = self._state_summary(state)
                summary["tenant"] = tenant
                out[f"{slo_name}[{tenant}]"] = summary
        return out
