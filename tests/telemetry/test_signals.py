"""The signal table is held to the code: every series the source emits
is declared, every declared row is emitted, the docs table is the
generated one — and the one store gives its readers one answer."""

import ast
import json
from pathlib import Path

import pytest

from repro.backends import LocalBackend
from repro.ham import f2f
from repro.offload import api as offload_api
from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry
from repro.telemetry.signals import SIGNALS

from tests import apps
from tests.fresh import fresh_python

ROOT = Path(__file__).resolve().parents[2]
#: Where series are emitted: the package, and the benchmark's probe.
EMITTER_ROOTS = [ROOT / "src" / "repro", ROOT / "perfbench"]

#: ``<registry>.counter(name)`` / ``.gauge(name)`` / ``.log_histogram(name)``
#: on any receiver; the ``telemetry.count(name)`` / ``.gauge(name, v)``
#: helpers. (``count`` alone is also a ``str`` method.)
_ACCESSORS = {"counter", "gauge", "log_histogram"}
#: ``<recorder>.counters[name]``: the recorder's counters by name.
_TABLES = {"counters"}


def _literal(node: ast.expr) -> str | None:
    """The series name a call's first argument spells, with ``x`` for
    every runtime label; ``None`` when it is not spelled at the call."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "x"
            for part in node.values
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _literal(node.left)
        return None if left is None else left + "x"
    return None


def emitted_series() -> dict[str, str]:
    """``{series literal: where}`` for every emit site under the roots."""
    found: dict[str, str] = {}
    for root in EMITTER_ROOTS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Subscript)
                        and isinstance(node.value, ast.Attribute)
                        and node.value.attr in _TABLES):
                    name = _literal(node.slice)
                    if name is not None:
                        found[name] = f"{path.relative_to(ROOT)}:{node.lineno}"
                    continue
                if not (isinstance(node, ast.Call) and node.args
                        and isinstance(node.func, ast.Attribute)):
                    continue
                attr, receiver = node.func.attr, node.func.value
                helper = (attr == "count" and isinstance(receiver, ast.Name)
                          and receiver.id == "telemetry")
                if not (helper or attr in _ACCESSORS):
                    continue
                name = _literal(node.args[0])
                if name is not None:
                    found[name] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return found


class TestTable:
    def test_every_series_literal_in_the_source_is_declared(self):
        emitted = emitted_series()
        assert len(emitted) > 17  # the scan bites
        undeclared = {name: where for name, where in emitted.items()
                      if SIGNALS.resolve(name) is None}
        assert not undeclared

    def test_every_row_has_an_emitter(self):
        rows = {SIGNALS.resolve(name) for name in emitted_series()}
        assert [s.name for s in SIGNALS if s not in rows] == []

    def test_every_row_is_complete_and_declared_once(self):
        for signal in SIGNALS:
            assert signal.kind in ("counter", "gauge", "histogram")
            assert signal.unit and signal.help and signal.consumer, signal.name
        names = [signal.name for signal in SIGNALS]
        assert len(set(names)) == len(names)

    def test_families_resolve_most_specific_first(self):
        assert SIGNALS.resolve("kernel.a.b::k.errors").kind == "counter"
        assert SIGNALS.resolve("kernel.a.b::k.offload").kind == "histogram"
        assert SIGNALS.resolve("kernel.k.offload.serialize") is None
        assert SIGNALS.resolve("health.consecutive_failures.2").name == \
            "health.consecutive_failures.<node>"
        assert SIGNALS.resolve("health.node_state.") is None  # the label is empty
        # Labels are free text: a kernel may end like another's leaf.
        assert SIGNALS.resolve("kernel.k.copy.bytes").kind == "counter"
        assert SIGNALS.resolve("kernel.k.copy.bytes", "histogram") is None
        with pytest.raises(TypeError, match="declared as a counter"):
            SIGNALS.check("kernel.k.copy.bytes", "gauge")
        assert SIGNALS.resolve("offload.rejected") is None

    def test_docs_table_is_the_generated_one(self):
        docs = (ROOT / "docs" / "observability.md").read_text()
        begin, end = "<!-- signals:begin -->\n", "<!-- signals:end -->"
        section = docs[docs.index(begin) + len(begin):docs.index(end)]
        assert section == SIGNALS.markdown(), (
            "regenerate: python -m repro.telemetry.signals")

    def test_the_command_prints_the_table(self):
        printed = fresh_python(
            "import runpy; "
            "runpy.run_module('repro.telemetry.signals', run_name='__main__')")
        assert printed == SIGNALS.markdown()


@pytest.fixture
def _unarmed_flight_recorder():
    flight = flightrecorder.get()
    crash_dir = flight.crash_dir
    yield
    flight.crash_dir = crash_dir


def test_two_readers_one_answer(tmp_path, _unarmed_flight_recorder):
    """The live ``telemetry.get().metrics`` and a crash bundle's
    ``metrics.json`` read the recorder's one registry: a kernel's series
    is in both after one offload."""
    kernel = f2f(apps.add, 1, 2).type_name
    series = f"kernel.{kernel}.offload"
    try:
        runtime = offload_api.init(LocalBackend(),
                                   telemetry={"crash_dir": tmp_path})
        assert runtime.sync(1, f2f(apps.add, 1, 2)) == 3

        live = telemetry.get().metrics.snapshot()
        assert live["histograms"][series]["count"] == 1

        bundle = flightrecorder.trigger("test", force=True)
        metrics = json.loads((bundle / "metrics.json").read_text())
        assert metrics["histograms"][series] == live["histograms"][series]
    finally:
        offload_api.finalize()
        telemetry.disable()
