"""The import graph follows use — structural, clock-free, one fresh
interpreter per case.

``setup_s`` is an import bill. What keeps it small is that a process
loads the modules its offloads run and no others: no simulated platform,
no exporter, no asyncio for ``init("local")``. These tests read
``sys.modules``, not a clock, so they give the same verdict on any box.

The second half is the price of laziness: with package ``__init__``
modules that import nothing, *every* module can be the first ``repro``
import of a process, so every documented entry point is tried as one.
"""

import functools
import json
import re

import pytest

from tests.fresh import ROOT, fresh_python


def _modules_after_offload(transport: str, **init_options) -> set[str]:
    """``sys.modules`` after init + one checked echo + finalize."""
    return set(json.loads(fresh_python(f"""
import json, sys
from repro.offload import api
from repro.ham import f2f
from tests.apps import echo
api.init({transport!r}, **{init_options!r})
assert api.sync(1, f2f(echo, 41)) == 41
api.finalize()
print(json.dumps(sorted(sys.modules)))
""")))


def _loaded(modules: set[str], prefix: str) -> list[str]:
    return sorted(
        m for m in modules if m == prefix or m.startswith(prefix + ".")
    )


#: Never needed to offload over a real transport.
NEVER = [
    "networkx", "scipy", "asyncio", "http.server",
    "repro.machine", "repro.cluster", "repro.hw", "repro.sim", "repro.veo",
    "repro.veos", "repro.bench", "repro.workloads",
    "repro.telemetry.tsdb", "repro.telemetry.promexport", "repro.telemetry.slo",
    "repro.telemetry.inspect", "repro.telemetry.report",
]
#: The other transports' modules.
NOT_ON = {
    "local": ["repro.backends.tcp", "repro.backends.shm"],
    "shm": ["repro.backends.tcp"],
    "tcp": ["repro.backends.shm"],
}


@pytest.mark.parametrize("transport", ["local", "shm", "tcp"])
def test_an_offload_loads_its_transport_and_nothing_else(transport):
    modules = _modules_after_offload(transport)
    for prefix in NEVER + NOT_ON[transport]:
        assert _loaded(modules, prefix) == [], prefix
    ours = [m for m in modules if m.startswith("repro.")]
    assert len(ours) <= 35, sorted(ours)


def test_a_tcp_offload_runs_no_event_loop():
    """The caller that waits reads its own reply and the coalescer's
    deadline is a plain timer thread: an event loop exists only where
    the application awaits, and it is the application's."""
    assert _loaded(_modules_after_offload("tcp"), "asyncio") == []


#: What only a ``metrics_port`` selects: the exporter and its server.
EXPORTER = ["http.server", "repro.telemetry.promexport"]


@pytest.mark.parametrize(
    "telemetry, selected",
    [
        (True, ["repro.telemetry.config", "repro.telemetry.slo"]),
        ({"sample_rate": 0.5}, ["repro.telemetry.sampling", "repro.telemetry.slo"]),
        ({"tsdb": True}, ["repro.telemetry.tsdb"]),
        ({"metrics_port": 0}, EXPORTER),
    ],
    ids=["true", "sample_rate", "tsdb", "metrics_port"],
)
def test_an_option_loads_what_it_selects(telemetry, selected):
    modules = _modules_after_offload("local", telemetry=telemetry)
    for name in selected:
        assert name in modules, name
    if "repro.telemetry.tsdb" not in selected:
        assert "repro.telemetry.tsdb" not in modules
    if selected is not EXPORTER:
        for name in EXPORTER:
            assert _loaded(modules, name) == [], name
    for prefix in ("networkx", "asyncio", "repro.machine", "repro.hw", "repro.sim"):
        assert _loaded(modules, prefix) == [], prefix


def test_the_experiments_module_is_simulated_only():
    """The paper experiments start no real transport and read no wall
    clock (that is perfbench's): importing them loads neither."""
    modules = set(json.loads(fresh_python("""
import json, sys
import repro.bench.experiments
print(json.dumps(sorted(sys.modules)))
""")))
    for prefix in (
        "repro.backends.tcp", "repro.backends.shm",
        "repro.telemetry.tsdb", "repro.telemetry.promexport",
    ):
        assert _loaded(modules, prefix) == [], prefix


_IMPORT = re.compile(
    r"^[ \t]*(from repro[\w.]* import (?:\([^)]*\)|[^\n(#]+)|import repro[\w.]*)",
    re.MULTILINE,
)


#: Where users are shown ``repro`` imports, and what the benchmark runs.
ENTRY_POINT_SOURCES = [
    "docs/api.md",
    *sorted(f"examples/{path.name}" for path in (ROOT / "examples").glob("*.py")),
    "perfbench/child.py", "perfbench/layers.py", "perfbench/kernels.py",
]


def _repro_imports(source: str) -> list[str]:
    """The distinct ``repro`` import statements of one file (collected,
    not hand-listed), each normalized to one line."""
    found = set()
    for statement in _IMPORT.findall((ROOT / source).read_text()):
        statement = re.sub(r"#[^\n]*", "", statement)  # comments inside (...)
        found.add(" ".join(statement.split()))
    return sorted(found)


@functools.lru_cache(maxsize=None)
def _imports_first(statement: str) -> None:
    """``statement`` as the first ``repro`` import of a process (tried
    once per session however many files show it)."""
    fresh_python(statement)


@pytest.mark.parametrize("source", ENTRY_POINT_SOURCES)
def test_entry_point_imports_first(source):
    statements = _repro_imports(source)
    assert statements, f"no repro import found in {source}"
    for statement in statements:
        _imports_first(statement)


def test_multi_line_imports_are_collected_whole():
    assert any(
        statement.startswith("from repro.backends import ( ")
        and statement.endswith(")")
        for source in ENTRY_POINT_SOURCES
        for statement in _repro_imports(source)
    )


@pytest.mark.parametrize(
    "module",
    [
        # Both ends of the cycle an eager ``repro.offload`` package had
        # with ``backends.base``, then the lightest and the target's entry.
        "repro.backends.base",
        "repro.offload.qos",
        "repro.telemetry.recorder",
        "repro.backends.target_main",
    ],
)
def test_module_imports_first(module):
    _imports_first(f"import {module}")


@pytest.mark.parametrize(
    "package", ["repro", "repro.backends", "repro.offload", "repro.telemetry"]
)
def test_package_namespace_resolves_every_public_name(package):
    out = fresh_python(f"""
import {package} as pkg
missing = set(pkg.__all__) - set(dir(pkg))
assert not missing, missing
for name in pkg.__all__:
    assert getattr(pkg, name) is not None, name
try:
    pkg.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute resolved")
print(len(pkg.__all__))
""")
    assert int(out) > 0


def test_submodules_resolve_as_package_attributes():
    fresh_python("""
import repro.telemetry as t, repro.backends as b, repro.offload as o
assert t.export.write_chrome_trace and t.recorder.enable is t.enable
assert b.local.LocalBackend is b.LocalBackend
assert o.api.init and o.runtime.Runtime is o.Runtime
""")
