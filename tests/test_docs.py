"""The docs describe this code: every name they use is checked against it.

A doc that names a deleted module, a flag nobody parses or an ``init``
keyword the runtime refuses sends its reader to something that is not
there. Each test below holds ``docs/*.md`` and the top-level documents
to one kind of name, without reading a clock or spawning a process:
dotted ``repro.*`` names are imported, paths and test ids looked up on
disk, ``python -m`` commands imported and their flags found in the
module's own source, links and anchors resolved, ``init(...)`` keywords
matched against the signatures they end up in. History is not a name:
an issue or PR number or a commit id belongs to CHANGES.md and
``git log``, never to a doc that says what is.

A red test is fixed in the doc or in the code. The one allowlist is
:data:`GENERATED`: outputs that exist only after a run.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import re

from tests.fresh import ROOT

DOCS = sorted(
    [*(ROOT / "docs").glob("*.md")]
    + [ROOT / name for name in ("README.md", "CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md")]
)
#: Paths a run writes; nothing is committed there.
GENERATED = ("perfbench/out/",)
#: Where a relative path in a doc may start, first match wins.
PATH_BASES = (ROOT, ROOT / "src/repro", ROOT / "src")
#: Source packages of a ``python -m`` module beyond its own.
FLAG_SOURCES = {"pytest": ("_pytest",)}

_FENCE = re.compile(r"^(```|~~~)")
_INLINE = re.compile(r"(`+)(.+?)\1", re.S)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_REPRO_NAME = re.compile(r"(?<![\w./])repro(?:\.[A-Za-z_]\w*)+")
_PATH = re.compile(r"^[\w.<>*-]+(?:/[\w.<>*-]*)+$|^[\w<>*-]+\.py$")
_COMMAND = re.compile(r"\bpython3?\s+(?:-X\s+\S+\s+)?(-m\s+([\w.]+)|([\w./-]+\.py))([^|;&#`]*)")
_FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
_CALL = re.compile(r"(?<![\w.])(?:(?:offload|api)\.)?(init|create_backend)\(")
_HISTORY = re.compile(
    r"\b(?:ISSUE|[Ii]ssue|PRs?)\s*#?\d+"
    r"|\b[Tt]his PR\b"
    r"|\b(?=[0-9a-f]*[a-f])(?=[0-9a-f]*[0-9])(?:[0-9a-f]{7,12}|[0-9a-f]{40})\b"
)


@dataclasses.dataclass
class Doc:
    path: pathlib.Path
    text: str
    #: ``(line, code)``: every inline code span (whitespace collapsed) and
    #: every line of a fenced block.
    code: list
    #: ``(line, target)`` of every markdown link outside code.
    links: list

    @property
    def name(self) -> str:
        return str(self.path.relative_to(ROOT))


def _parse(path: pathlib.Path) -> Doc:
    text = path.read_text()
    code, prose = [], []
    fenced = False
    for number, line in enumerate(text.splitlines(), 1):
        if _FENCE.match(line.strip()):
            fenced = not fenced
            prose.append("")
        elif fenced:
            code.append((number, line))
            prose.append("")
        else:
            prose.append(line)
    prose_text = "\n".join(prose)

    def line_of(offset):
        return prose_text.count("\n", 0, offset) + 1

    for match in _INLINE.finditer(prose_text):
        code.append((line_of(match.start()), " ".join(match.group(2).split())))
    without_code = _INLINE.sub(lambda m: " " * len(m.group(0)), prose_text)
    links = [(line_of(m.start()), m.group(1)) for m in _LINK.finditer(without_code)]
    return Doc(path, text, sorted(code), links)


PARSED = [_parse(path) for path in DOCS]


def _report(problems):
    assert not problems, "\n".join(problems)


# -- names ---------------------------------------------------------------------
def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_repro_name_resolves():
    problems = [
        f"{doc.name}:{line}: `{name}` is neither a module nor an attribute"
        for doc in PARSED
        for line, code in doc.code
        for name in _REPRO_NAME.findall(code)
        if not _resolves(name)
    ]
    _report(problems)


# -- paths and test ids --------------------------------------------------------
_PY_FILES = [
    path for path in ROOT.rglob("*.py")
    if ".git" not in path.parts and "__pycache__" not in path.parts
]


def _exists(token: str, doc: Doc) -> list:
    """The files ``token`` names (``<name>`` is a wildcard): a bare module
    file anywhere in the repo, else a path from the doc's directory or
    the first base that has it."""
    pattern = re.sub(r"<[^<>]*>", "*", token)
    if "/" not in pattern:
        return [path for path in _PY_FILES if path.match(pattern)]
    pattern = pattern.rstrip("/")
    for base in (doc.path.parent, *PATH_BASES):
        hits = base.glob(pattern) if "*" in pattern else [base / pattern]
        hits = [hit for hit in hits if hit.exists()]
        if hits:
            return hits
    return []


def _is_path(token: str) -> bool:
    if not _PATH.match(token) or token.startswith(("/", ".")):
        return False
    head = token.split("/", 1)[0]
    if "/" not in token:
        return True  # a bare module file
    return any((base / head).exists() for base in PATH_BASES)


def _test_names(path: pathlib.Path) -> dict:
    """``{name: set of method names}`` for classes, ``{name: None}`` for
    module-level functions, of one test file."""
    names = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = {
                item.name for item in node.body if isinstance(item, ast.FunctionDef)
            }
        elif isinstance(node, ast.FunctionDef):
            names[node.name] = None
    return names


def _test_id_problem(path: pathlib.Path, test_id: str) -> str | None:
    names = _test_names(path)
    parts = [re.sub(r"\[.*\]$", "", part) for part in test_id.split("::")]
    if parts[0] not in names:
        return f"no `{parts[0]}` in {path.relative_to(ROOT)}"
    if len(parts) > 1 and parts[1] not in (names[parts[0]] or ()):
        return f"no `{parts[0]}::{parts[1]}` in {path.relative_to(ROOT)}"
    return None


def _path_tokens(doc: Doc):
    for line, code in doc.code:
        for raw in code.split():
            token = raw.strip("\"'(),;:[]")
            path, _, test_id = token.partition("::")
            if _is_path(path):
                yield line, token, path, test_id


def test_every_repo_path_and_test_id_exists():
    problems = []
    for doc in PARSED:
        for line, token, path, test_id in _path_tokens(doc):
            if path.startswith(GENERATED):
                continue
            found = _exists(path, doc)
            if not found:
                problems.append(f"{doc.name}:{line}: `{path}` is not a path of this repo")
            elif test_id:
                problem = _test_id_problem(found[0], test_id)
                if problem:
                    problems.append(f"{doc.name}:{line}: `{token}`: {problem}")
    _report(problems)


# -- commands ------------------------------------------------------------------
def _module_source(module: str) -> str:
    text = []
    for name in (module, *FLAG_SOURCES.get(module, ())):
        spec = importlib.util.find_spec(name)
        origin = pathlib.Path(spec.origin)
        files = origin.parent.rglob("*.py") if spec.submodule_search_locations else [origin]
        text.extend(path.read_text() for path in files)
    return "\n".join(text)


def _commands(doc: Doc):
    """``(line, module or None, script or None, flags)`` per command line."""
    for line, code in doc.code:
        for match in _COMMAND.finditer(code):
            flags = sorted({flag for flag in _FLAG.findall(match.group(4))})
            yield line, match.group(2), match.group(3), flags


def test_every_python_command_imports_and_takes_its_flags():
    problems = []
    for doc in PARSED:
        for line, module, script, flags in _commands(doc):
            where = f"{doc.name}:{line}: `python -m {module}`" if module else (
                f"{doc.name}:{line}: `python {script}`"
            )
            if module:
                try:
                    importlib.import_module(module)
                except ImportError as exc:
                    problems.append(f"{where} does not import: {exc}")
                    continue
                source = _module_source(module)
            else:
                found = _exists(script, doc)
                if not found:
                    problems.append(f"{where}: no such script")
                    continue
                source = found[0].read_text()
            problems.extend(
                f"{where} has no option `{flag}`"
                for flag in flags
                if f'"{flag}"' not in source and f"'{flag}'" not in source
            )
    _report(problems)


# -- links ---------------------------------------------------------------------
def _slug(heading: str) -> str:
    """GitHub's anchor for a heading."""
    text = re.sub(r"[^\w\- ]", "", heading.strip().lower())
    return text.replace(" ", "-")


def _anchors(path: pathlib.Path) -> set:
    anchors, seen, fenced = set(), {}, False
    for line in path.read_text().splitlines():
        if _FENCE.match(line.strip()):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            slug = _slug(line.lstrip("#"))
            anchors.add(f"{slug}-{seen[slug]}" if slug in seen else slug)
            seen[slug] = seen.get(slug, 0) + 1
    return anchors


def test_every_relative_link_and_anchor_resolves():
    problems = []
    for doc in PARSED:
        for line, target in doc.links:
            if re.match(r"[a-z]+:", target):
                continue  # http(s), mailto
            file, _, anchor = target.partition("#")
            path = (doc.path.parent / file).resolve() if file else doc.path
            if not path.exists():
                problems.append(f"{doc.name}:{line}: link to missing `{file}`")
            elif anchor and anchor not in _anchors(path):
                problems.append(f"{doc.name}:{line}: no heading `#{anchor}` in `{path.name}`")
    _report(problems)


# -- init(...) keywords --------------------------------------------------------
def _params(fn) -> set:
    return {
        name
        for name, param in inspect.signature(fn).parameters.items()
        if param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD) and name != "self"
    }


def _backend_params() -> dict:
    from repro.backends.local import LocalBackend
    from repro.backends.shm import ShmBackend, spawn_shm_server
    from repro.backends.tcp import TcpBackend, spawn_local_server

    return {
        "local": _params(LocalBackend),
        "tcp": _params(TcpBackend) | _params(spawn_local_server),
        "shm": _params(ShmBackend) | _params(spawn_shm_server),
    }


def _call_text(code: str, start: int) -> str | None:
    """The call starting at ``start`` up to its balanced ``)``."""
    depth = 0
    for end in range(code.index("(", start), len(code)):
        depth += {"(": 1, ")": -1}.get(code[end], 0)
        if depth == 0:
            return code[start: end + 1]
    return None


def _backend_names(node) -> set:
    """String literals among ``"shm"`` or ``"shm" | "tcp"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.BinOp):
        return _backend_names(node.left) | _backend_names(node.right)
    return set()


def _call_problems(call: ast.Call, kind: str) -> list:
    from repro.offload import api
    from repro.telemetry.config import TelemetryConfig

    keywords = {kw.arg: kw.value for kw in call.keywords if kw.arg}
    backend = call.args[0] if call.args else keywords.pop(
        "backend" if kind == "init" else "name", None
    )
    names = _backend_names(backend) if backend is not None else set()
    per_backend = _backend_params()
    unknown = sorted(names - set(per_backend))
    allowed = _params(api.init) if kind == "init" else set()
    for name in names & set(per_backend):
        allowed |= per_backend[name]
    problems = [f"unknown backend {name!r}" for name in unknown]
    problems += [f"no keyword `{key}=`" for key in sorted(set(keywords) - allowed)]
    telemetry = keywords.get("telemetry")
    if isinstance(telemetry, ast.Dict):
        fields = {field.name for field in dataclasses.fields(TelemetryConfig)}
        problems += [
            f"`TelemetryConfig` has no field `{key.value}`"
            for key in telemetry.keys
            if isinstance(key, ast.Constant) and key.value not in fields
        ]
    return problems


def test_every_init_keyword_is_a_parameter():
    problems = []
    for doc in PARSED:
        for line, code in doc.code:
            for match in _CALL.finditer(code):
                text = _call_text(code, match.start())
                if text is None:
                    continue  # the call continues on the next line
                bare = text.split(".", 1)[1] if text.startswith(("offload.", "api.")) else text
                try:
                    call = ast.parse(bare, mode="eval").body
                except SyntaxError:
                    problems.append(f"{doc.name}:{line}: `{text}` is not a call")
                    continue
                problems.extend(
                    f"{doc.name}:{line}: `{text}`: {problem}"
                    for problem in _call_problems(call, match.group(1))
                )
    _report(problems)


# -- history -------------------------------------------------------------------
def test_no_doc_tells_history():
    problems = [
        f"{doc.name}:{number}: `{match.group(0)}` is history (CHANGES.md, git log)"
        for doc in PARSED
        for number, line in enumerate(doc.text.splitlines(), 1)
        for match in _HISTORY.finditer(line)
    ]
    _report(problems)


# -- the changelog -------------------------------------------------------------
_ENTRY = re.compile(r"- PR (\d+):")


def test_the_newest_changelog_entry_is_short():
    """CHANGES.md's newest ``- PR N:`` entry (the line, and the indented
    lines under it) is at most 5 lines of at most 100 characters."""
    lines = (ROOT / "CHANGES.md").read_text().splitlines()
    starts = {
        int(match.group(1)): number
        for number, line in enumerate(lines)
        if (match := _ENTRY.match(line))
    }
    assert starts, "CHANGES.md has no '- PR N:' entry"
    first = starts[max(starts)]
    entry = [lines[first]]
    for line in lines[first + 1:]:
        if not line.startswith(" ") or not line.strip():
            break
        entry.append(line)
    assert len(entry) <= 5, f"the newest entry runs to {len(entry)} lines"
    _report([
        f"CHANGES.md:{first + 1 + offset}: {len(line)} characters"
        for offset, line in enumerate(entry)
        if len(line) > 100
    ])


# -- the real-path op table ----------------------------------------------------
def _op_table() -> dict:
    text = (ROOT / "docs/protocols.md").read_text()
    _, found, section = text.partition("## Real-path frames")
    assert found, "docs/protocols.md has no 'Real-path frames' section"
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(OP_\w+)` \| `(0x[0-9A-Fa-f]{2})` \|", section, re.M)
    return {name: int(value, 16) for name, value in rows}


def test_the_op_table_is_the_servers():
    from repro.backends import _server

    constants = {name: value for name, value in vars(_server).items() if name.startswith("OP_")}
    assert _op_table() == constants


def test_every_doc_is_parsed():
    # A document whose code and links the parser cannot find would pass
    # every check above vacuously.
    assert [doc.name for doc in PARSED if not (doc.code or doc.links)] == []
