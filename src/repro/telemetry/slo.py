"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLO` states an objective over the offload round trip (issue
to result): "99% of offloads finish under 50 ms", or "99.9% of offloads
succeed" (``threshold_ns=None`` makes it an error SLO). The
:class:`SLOMonitor` evaluates each objective over two rolling windows —
a fast one that reacts within tens of operations and a slow one that
filters blips — and alerts only when *both* burn too hot, the standard
multi-window burn-rate recipe (Google SRE workbook, ch. 5).

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


@dataclass(frozen=True, slots=True)
class SLO:
    """One objective over the offload round trip.

    Attributes
    ----------
    name:
        Alert identity (``offload-latency-p99``); also the gauge prefix.
    threshold_ns:
        An operation is *bad* when it runs longer than this; ``None``
        makes this an availability SLO where only errors are bad.
    objective:
        Target good fraction in ``(0, 1)`` — 0.99 allows a 1% budget.
    """

    name: str
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


def default_slos() -> tuple[SLO, ...]:
    """A sane starter set: round-trip latency + availability."""
    return (
        SLO(name="offload-latency", threshold_ns=250_000_000, objective=0.99),
        SLO(name="offload-availability", threshold_ns=None, objective=0.99),
    )


class _SLOState:
    """Rolling windows with O(1) burn math — this sits on the hot path.

    Each window is a bounded deque with its length and its bad count
    kept beside it, updated on push/evict, so one completion costs two
    deque appends: no 600-element walk of the slow window, no ``len``.
    :meth:`SLOMonitor.observe` does the push itself, and stops there
    when nothing moved (full windows, a good completion evicting good
    ones: the burn rates and the verdict stay what they were).
    """

    __slots__ = (
        "slo", "tenant", "budget", "fast", "slow", "fast_n", "slow_n",
        "fast_bad", "slow_bad", "breached", "total", "bad", "gauges",
        "published",
    )

    def __init__(self, slo: SLO, fast_window: int, slow_window: int,
                 tenant: str | None = None) -> None:
        self.slo = slo
        #: ``None`` for the global state, else the tenant it watches.
        self.tenant = tenant
        self.budget = 1.0 - slo.objective
        self.fast: deque[int] = deque(maxlen=fast_window)
        self.slow: deque[int] = deque(maxlen=slow_window)
        self.fast_n = self.slow_n = 0
        self.fast_bad = 0
        self.slow_bad = 0
        self.breached = False
        self.total = 0
        self.bad = 0
        self.gauges: tuple[Any, Any, Any] | None = None
        #: The (fast burn, slow burn, breached) last stored in ``gauges``.
        self.published: tuple[float, float, bool] | None = None

    def fast_burn(self) -> float:
        if not self.fast_n:
            return 0.0
        return (self.fast_bad / self.fast_n) / self.budget

    def slow_burn(self) -> float:
        if not self.slow_n:
            return 0.0
        return (self.slow_bad / self.slow_n) / self.budget


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
        # observe() runs once per offload: gauge objects are resolved
        # once here, not per observe.
        self._global = tuple(self._states.values())
        for state in self._global:
            state.gauges = self._gauges(state.slo.name)

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
    def _with_tenant_locked(
        self, states: tuple[_SLOState, ...], tenant: str
    ) -> tuple[_SLOState, ...]:
        """``states``, each followed by its per-tenant twin (created on
        first use while the tenant cap has room)."""
        folded = []
        for state in states:
            folded.append(state)
            key = (state.slo.name, tenant)
            tstate = self._tenant_states.get(key)
            if tstate is None:
                if (tenant not in self._tenants
                        and len(self._tenants) >= self.max_tenants):
                    continue
                self._tenants.add(tenant)
                tstate = self._tenant_states[key] = _SLOState(
                    state.slo, self._fast_window, self._slow_window, tenant
                )
                tstate.gauges = self._gauges(f"{state.slo.name}.tenant.{tenant}")
            folded.append(tstate)
        return tuple(folded)

    def observe(self, duration_ns: int, *,
                error: bool = False, tenant: str | None = None) -> None:
        """Fold one finished offload round trip into every SLO.

        With ``tenant`` set, the operation also feeds that tenant's own
        rolling windows: breach events then carry the tenant and name
        ``<slo>[<tenant>]``, so alerting distinguishes "tenant X is
        over budget" from "the service is over budget". The global
        (tenant-less) state is always fed.
        """
        states = self._global
        transitions: list[tuple[SLO, bool, float, float, str | None]] = []
        fast_window, slow_window = self._fast_window, self._slow_window
        min_samples, threshold = self.min_samples, self.burn_threshold
        with self._lock:
            if tenant is not None:
                states = self._with_tenant_locked(states, tenant)
            for state in states:
                slo = state.slo
                limit = slo.threshold_ns
                bad = 1 if error or (limit is not None and duration_ns > limit) else 0
                fast, slow = state.fast, state.slow
                state.total += 1
                if state.slow_n == slow_window:
                    # Both windows full (the fast one fills first): the
                    # append evicts each one's oldest entry. A good
                    # operation evicting two good ones moves nothing.
                    evicted_fast, evicted_slow = fast[0], slow[0]
                    fast.append(bad)
                    slow.append(bad)
                    if not (bad or evicted_fast or evicted_slow):
                        continue
                    state.fast_bad += bad - evicted_fast
                    state.slow_bad += bad - evicted_slow
                else:
                    if state.fast_n == fast_window:
                        state.fast_bad -= fast[0]
                    else:
                        state.fast_n += 1
                    state.slow_n += 1
                    fast.append(bad)
                    slow.append(bad)
                    state.fast_bad += bad
                    state.slow_bad += bad
                state.bad += bad
                fast_burn = (state.fast_bad / state.fast_n) / state.budget
                slow_burn = (state.slow_bad / state.slow_n) / state.budget
                breached = (
                    state.fast_n >= min_samples
                    and fast_burn >= threshold
                    and slow_burn >= threshold
                )
                if breached != state.breached:
                    state.breached = breached
                    transitions.append(
                        (slo, breached, fast_burn, slow_burn, state.tenant))
                # A healthy stream folds the same three values every
                # time: the gauges are stored (a lock each) only when
                # one of them moved.
                published = (fast_burn, slow_burn, breached)
                if state.gauges is not None and published != state.published:
                    state.published = published
                    fast_g, slow_g, breached_g = state.gauges
                    fast_g.set(fast_burn)
                    slow_g.set(slow_burn)
                    breached_g.set(1.0 if breached else 0.0)
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
                slo=label,
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
        return {
            "threshold_ns": slo.threshold_ns,
            "objective": slo.objective,
            "total": state.total,
            "bad": state.bad,
            "fast_burn": state.fast_burn(),
            "slow_burn": state.slow_burn(),
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
