"""One control-plane stream: ``telemetry.event`` is one call, two rings.

An event always drops into the black-box ring and, while telemetry
records, into the trace ring; a
``flightrecorder.note`` is black-box only. Nothing is both — checked
against the source — and ``docs/observability.md`` lists every name.
"""

import ast
from pathlib import Path

import pytest

from repro.telemetry import flightrecorder
from repro.telemetry import recorder as telemetry

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"


@pytest.fixture
def black_box():
    flight = flightrecorder.get()
    flight.clear()
    return flight


def _black_box_events(flight):
    return [(name, category, attrs)
            for _, name, category, attrs in flight.records()]


def _trace_events(recorder):
    return [(r.name, r.category, r.attrs) for r in recorder.events()]


RETRY = ("resilience.retry", "resilience", {"attempt": 1, "node": 2})


def _emit_retry():
    telemetry.event("resilience.retry", category="resilience",
                    attempt=1, node=2)


class TestOneCall:
    def test_telemetry_off_lands_in_the_black_box_only(self, black_box):
        assert not telemetry.enabled()
        _emit_retry()
        assert _black_box_events(black_box) == [RETRY]

    def test_telemetry_on_lands_in_both_rings_equal(self, black_box):
        recorder = telemetry.enable()
        _emit_retry()
        assert _black_box_events(black_box) == [RETRY]
        assert _trace_events(recorder) == [RETRY]


# --------------------------------------------------------------------------
# The source: which names are events, which are notes
# --------------------------------------------------------------------------

#: ``flight.trigger`` is what ``trigger`` itself leaves, not spelled at
#: a call the scan sees.
UNSCANNED = {"flight.trigger"}


def _calls(receiver: str, method: str,
           default: str) -> dict[str, tuple[str, str]]:
    """``{name literal: (category, module)}`` of every
    ``<receiver>.<method>("name", ...)`` call under ``src/repro``;
    ``default`` is the category of a call that passes none."""
    found: dict[str, tuple[str, str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == method
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == receiver):
                continue
            name = node.args[0]
            assert isinstance(name, ast.Constant), (
                f"{path}:{node.lineno}: spell the event name at the call")
            category = next(
                (kw.value.value for kw in node.keywords
                 if kw.arg == "category"), default)
            found[name.value] = (category, str(path.relative_to(PACKAGE)))
    return found


def _events() -> dict[str, tuple[str, str]]:
    return _calls("telemetry", "event", "offload")


def _notes() -> dict[str, tuple[str, str]]:
    return _calls("flightrecorder", "note", "flight")


def test_no_name_is_both_an_event_and_a_note():
    events, notes = _events(), _notes()
    assert len(events) >= 6 and len(notes) >= 3  # the scan bites
    assert not set(events) & set(notes)


def test_docs_table_lists_every_event_and_note():
    docs = (ROOT / "docs" / "observability.md").read_text()
    begin, end = "<!-- events:begin -->\n", "<!-- events:end -->"
    table = docs[docs.index(begin) + len(begin):docs.index(end)]
    rows = {tuple(cell.strip(" `") for cell in line.strip("|\n").split("|"))
            for line in table.splitlines()[2:]}
    expected = {
        (name, category, module, rings)
        for rings, calls in (("both", _events()), ("black box", _notes()))
        for name, (category, module) in calls.items()
    }
    assert expected <= rows
    assert {name for row in rows - expected
            for name in row[0].split("` / `")} == UNSCANNED
