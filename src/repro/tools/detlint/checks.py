"""Whole-program checks beyond taint: crash-boundary coverage,
fork-safety and reachability.

**Crash-boundary coverage (DF201/DF202).**  The commit protocol's crash
tests work by enumerating ``repro.store.commit._CRASH_HOOK`` boundary
labels and killing the process at each one (``docs/ARTIFACTS.md``).
That proof is only as good as its enumeration: a new
``checkpoint_boundary("...")`` call that no crash test references ships
an untested commit point.  This check extracts every boundary label
declared in ``repro.store``/``repro.serve`` — constants exactly,
f-strings as ``fnmatch`` patterns (``f"{boundary}.tmp.write"`` ->
``*.tmp.write``) — and requires each to be matched by at least one
string in the crash-test files.  Missing crash-test files (or an
unanalyzable label expression) fail closed as DF202: "cannot verify"
must never read as "verified".

**Fork-safety (DF301).**  ``resilience.pool`` and ``serve.service``
fork workers; state captured across a fork boundary is silently
duplicated — a shared ``ShardWriter`` writes torn shards, a forked
``JobJournal`` fsyncs the same fd from two processes, a copied open
file handle double-flushes buffered bytes.  This check inspects every
``Process(...)`` / ``ProcessPoolExecutor(...)`` call site and flags
arguments typed (by local constructor inference) as live-state classes,
locals bound to ``open()`` results, and bound-method targets
(``target=self._run`` captures the whole live object).

**Reachability (DF401).**  A ``def`` or ``class`` is live when its name
appears somewhere outside ``tests/`` and outside its own body: as a
load, an attribute name or an imported name, in the project's own code
or in its ``examples/``, ``perfbench/`` or ``benchmarks/`` entry
points.  A re-export is not a use: an ``__all__`` string never counts,
and neither does an import in a package ``__init__.py``, so a name only
a package passes on is reported.  Name-based on purpose: a same-named
attribute anywhere keeps a method alive, so duck typing never yields a
false finding.  Dunders and functions registered through a decorator
factory the project defines (``@rule(...)``) are never flagged.
"""

from __future__ import annotations

import ast
import fnmatch
import os

from repro.tools.detlint.engine import (
    FileContext,
    Finding,
    _dotted,
    iter_python_files,
    load_context,
)
from repro.tools.detlint.graph import ProjectGraph
from repro.tools.detlint.rules import _in_packages

BOUNDARY_UNCOVERED_CODE = "DF201"
BOUNDARY_INFRA_CODE = "DF202"
FORK_CAPTURE_CODE = "DF301"
REACHABILITY_CODE = "DF401"

#: Packages whose ``checkpoint_boundary`` calls declare crash points.
BOUNDARY_PACKAGES = ("repro.store", "repro.serve")

#: Crash tests that must reference every declared boundary.
CRASH_TEST_FILES = (
    "test_store_crash.py",
    "test_serve_crash.py",
    "test_store_commit_faults.py",
)

#: Classes holding live fds/locks/process state — never cross a fork.
LIVE_STATE_CLASSES = frozenset({
    "ShardWriter", "JobJournal", "DriveCache", "ObsRecorder",
})

FORK_CALL_LEAVES = frozenset({"Process", "ProcessPoolExecutor"})

#: Directories beside ``tests/`` whose code only uses the project: it
#: keeps names alive but is never itself reported by DF401.
ENTRY_POINT_DIRS = ("examples", "perfbench", "benchmarks")


# -- boundary extraction -------------------------------------------------

def _label_pattern(node: ast.expr) -> str | None:
    """A boundary-label expression as an fnmatch pattern, or ``None``
    if it cannot be analyzed (which fails closed as DF202)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            elif isinstance(value, ast.FormattedValue):
                parts.append("*")
            else:
                return None
        return "".join(parts)
    return None


def declared_boundaries(
    contexts: list[FileContext],
) -> tuple[list[tuple[FileContext, ast.Call, str]], list[Finding]]:
    """Every ``checkpoint_boundary(label)`` declaration in scope."""
    declarations: list[tuple[FileContext, ast.Call, str]] = []
    findings: list[Finding] = []
    for ctx in contexts:
        if not _in_packages(ctx.module, BOUNDARY_PACKAGES):
            continue
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None or dotted.rpartition(".")[2] != "checkpoint_boundary":
                continue
            if not node.args:
                continue
            pattern = _label_pattern(node.args[0])
            if pattern is None:
                findings.append(ctx.finding(node, BOUNDARY_INFRA_CODE, (
                    "checkpoint_boundary() label is not a constant or "
                    "f-string — detlint cannot match it against crash "
                    "tests; use a literal or f-string label"
                )))
                continue
            declarations.append((ctx, node, pattern))
    return declarations, findings


def _reference_strings(tests_dir: str) -> tuple[set[str], list[str]]:
    """All string constants (f-strings as patterns) in the crash tests,
    plus the list of crash-test files that could not be read."""
    refs: set[str] = set()
    missing: list[str] = []
    for name in CRASH_TEST_FILES:
        path = os.path.join(tests_dir, name)
        loaded = load_context(path)
        if isinstance(loaded, Finding):
            missing.append(path)
            continue
        for node in ast.walk(loaded.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
            elif isinstance(node, ast.JoinedStr):
                pattern = _label_pattern(node)
                if pattern is not None:
                    refs.add(pattern)
    return refs, missing


def _covered(declared: str, refs: set[str]) -> bool:
    """A declaration pattern is covered if any reference string matches
    it — in either direction, since both sides may hold the wildcard
    (declared ``*.tmp.write`` vs referenced ``manifest.tmp.write``;
    declared ``shard.rename`` vs referenced ``shard.*``)."""
    for ref in refs:
        if ref == declared:
            return True
        if fnmatch.fnmatchcase(ref, declared) or fnmatch.fnmatchcase(declared, ref):
            return True
    return False


def find_tests_dir(paths: list[str]) -> str | None:
    """Locate the crash tests near the scanned paths (or cwd)."""
    candidates: list[str] = []
    for path in paths:
        base = path if os.path.isdir(path) else os.path.dirname(path)
        base = os.path.abspath(base)
        while True:
            candidates.append(os.path.join(base, "tests"))
            parent = os.path.dirname(base)
            if parent == base:
                break
            base = parent
    candidates.append(os.path.join(os.getcwd(), "tests"))
    for cand in candidates:
        if any(
            os.path.isfile(os.path.join(cand, name)) for name in CRASH_TEST_FILES
        ):
            return cand
    return None


def check_boundary_coverage(
    contexts: list[FileContext], tests_dir: str | None
) -> list[Finding]:
    declarations, findings = declared_boundaries(contexts)
    if not declarations:
        return findings
    if tests_dir is None:
        # Boundaries exist but no crash tests found: fail closed.
        ctx, node, _ = declarations[0]
        findings.append(ctx.finding(node, BOUNDARY_INFRA_CODE, (
            "crash-boundary declarations found but no crash-test "
            "directory was located (looked for a tests/ directory "
            "above the scanned paths or in the working directory "
            f"containing {', '.join(CRASH_TEST_FILES)})"
        )))
        return findings
    refs, missing = _reference_strings(tests_dir)
    for path in missing:
        ctx, node, _ = declarations[0]
        findings.append(ctx.finding(node, BOUNDARY_INFRA_CODE, (
            f"crash-test file {path} is missing or unreadable — "
            "boundary coverage cannot be verified (fails closed)"
        )))
    for ctx, node, pattern in declarations:
        if not _covered(pattern, refs):
            findings.append(ctx.finding(node, BOUNDARY_UNCOVERED_CODE, (
                f"crash boundary '{pattern}' is not referenced by any "
                f"crash test in {tests_dir} "
                f"({'/'.join(CRASH_TEST_FILES)}) — every _CRASH_HOOK "
                "commit point must have a kill-at-this-boundary test "
                "(docs/ARTIFACTS.md)"
            )))
    return findings


# -- fork-safety ---------------------------------------------------------

def _is_fork_call(node: ast.Call) -> bool:
    dotted = _dotted(node.func)
    if dotted is None:
        return False
    return dotted.rpartition(".")[2] in FORK_CALL_LEAVES


def check_fork_safety(graph: ProjectGraph) -> list[Finding]:
    """Live captures at every fork site, then thread-and-fork mixes."""
    findings: list[Finding] = []
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        module = graph.modules[fn.module]
        ctx = module.ctx
        types = graph.local_types(module, fn)
        open_handles = _open_handles(fn.node)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call) or not _is_fork_call(node):
                continue
            findings.extend(
                _inspect_fork_site(ctx, qualname, node, types, open_handles)
            )
    return findings + _check_fork_thread_mix(graph)


def _open_handles(fn_node: ast.AST) -> set[str]:
    """Locals bound to ``open(...)`` results in this function."""
    handles: set[str] = set()
    for node in ast.walk(fn_node):
        value: ast.expr | None = None
        target: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if (
                    isinstance(item.context_expr, ast.Call)
                    and _dotted(item.context_expr.func) == "open"
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    handles.add(item.optional_vars.id)
            continue
        if (
            target is not None
            and isinstance(target, ast.Name)
            and isinstance(value, ast.Call)
            and _dotted(value.func) == "open"
        ):
            handles.add(target.id)
    return handles


def _capture_args(node: ast.Call) -> list[tuple[ast.expr, bool]]:
    """Every expression that crosses the fork, paired with whether it
    is a callable slot (``target``/``initializer``) — the bound-method
    rule only applies there; ``self.root`` in ``args`` is a plain
    attribute read, evaluated before the fork."""
    out: list[tuple[ast.expr, bool]] = []
    for kw in node.keywords:
        if kw.arg in ("args", "initargs") and isinstance(
            kw.value, (ast.Tuple, ast.List)
        ):
            out.extend((elt, False) for elt in kw.value.elts)
        elif kw.arg in ("target", "initializer"):
            out.append((kw.value, True))
    return out


def _inspect_fork_site(
    ctx: FileContext,
    qualname: str,
    node: ast.Call,
    types: dict[str, str],
    open_handles: set[str],
) -> list[Finding]:
    findings: list[Finding] = []
    for expr, is_callable_slot in _capture_args(node):
        dotted = _dotted(expr)
        if dotted is None:
            continue
        head = dotted.partition(".")[0]
        # Live-state class instances (by constructor-inferred type).
        inferred = types.get(dotted) or types.get(head)
        if inferred is not None:
            leaf = inferred.rpartition(".")[2]
            if leaf in LIVE_STATE_CLASSES:
                findings.append(ctx.finding(expr, FORK_CAPTURE_CODE, (
                    f"'{dotted}' is a live {leaf} captured across a fork "
                    f"boundary in {qualname} — the child inherits its fd/"
                    "state and both processes will mutate it; pass plain "
                    "paths/ids and reconstruct in the child"
                )))
                continue
        # Open file handles.
        if head in open_handles:
            findings.append(ctx.finding(expr, FORK_CAPTURE_CODE, (
                f"open file handle '{head}' captured across a fork "
                f"boundary in {qualname} — buffered bytes flush from "
                "both processes; pass the path instead"
            )))
            continue
        # Bound methods (target=self._run drags the live object along).
        if is_callable_slot and dotted.startswith("self.") and dotted.count(".") == 1:
            findings.append(ctx.finding(expr, FORK_CAPTURE_CODE, (
                f"bound method '{dotted}' as fork target in {qualname} "
                "captures the whole live object (fds, locks, recorder "
                "state); use a module-level function taking plain args"
            )))
    return findings


def _check_fork_thread_mix(graph: ProjectGraph) -> list[Finding]:
    """Flag functions that both start a thread and fork: the child
    inherits the lock state of a thread that no longer runs."""
    findings: list[Finding] = []
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        ctx = graph.modules[fn.module].ctx
        thread_node: ast.Call | None = None
        fork_node: ast.Call | None = None
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            leaf = dotted.rpartition(".")[2] if dotted else ""
            if leaf == "Thread":
                thread_node = thread_node or node
            elif _is_fork_call(node):
                fork_node = fork_node or node
        if thread_node is not None and fork_node is not None:
            findings.append(ctx.finding(fork_node, FORK_CAPTURE_CODE, (
                f"{qualname} starts a thread and forks in the same "
                "function — a forked child inherits locks held by "
                "threads that do not exist in the child (deadlock on "
                "first contended acquire); fork first or confine the "
                "thread to the child"
            )))
    return findings


# -- reachability ----------------------------------------------------------

_DEF_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IMPORT_TYPES = (ast.Import, ast.ImportFrom)


def _project_root(directory: str, cache: dict[str, str | None]) -> str | None:
    """The nearest ancestor of ``directory`` holding an entry-point
    directory, found the way :func:`find_tests_dir` walks up."""
    if directory not in cache:
        if any(os.path.isdir(os.path.join(directory, d)) for d in ENTRY_POINT_DIRS):
            cache[directory] = directory
        else:
            parent = os.path.dirname(directory)
            cache[directory] = (
                None if parent == directory else _project_root(parent, cache)
            )
    return cache[directory]


def _qualname(node: ast.AST, defs: list[ast.AST]) -> str:
    """``Outer.inner`` for ``node``: the defs whose lines enclose it."""
    end = node.end_lineno or node.lineno
    outer = [
        d.name for d in defs
        if d is not node and d.lineno <= node.lineno and end <= (d.end_lineno or 0)
    ]
    return ".".join([*outer, node.name])


def _name_uses(nodes: list[ast.AST], wanted: set[str]) -> list[tuple[str, int]]:
    """``(name, line)`` for every load, attribute and imported name among
    ``nodes`` that names one of ``wanted``."""
    uses: list[tuple[str, int]] = []
    for node in nodes:
        kind = type(node)
        if kind is ast.Attribute:
            if node.attr in wanted:
                uses.append((node.attr, node.lineno))
        elif kind is ast.Name:
            if node.id in wanted and type(node.ctx) is ast.Load:
                uses.append((node.id, node.lineno))
        elif kind is ast.ImportFrom or kind is ast.Import:
            uses.extend(
                (part, node.lineno)
                for alias in node.names
                for part in alias.name.split(".")
                if part in wanted
            )
    return uses


def _registered(node: ast.AST, project_defs: set[str]) -> bool:
    """Decorated by a call to a decorator factory the project defines."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            dotted = _dotted(decorator.func)
            if dotted is not None and dotted.rpartition(".")[2] in project_defs:
                return True
    return False


def check_reachability(contexts: list[FileContext]) -> list[Finding]:
    """DF401 over every scanned file inside a located project.

    Files outside any project root, and files under its ``tests/`` or
    entry-point directories, are never reported.  The project's other
    files count as uses even when they were not scanned, so a scan of
    one module does not call every function the rest of the tree uses
    dead; each of them is parsed once, only then.
    """
    cache: dict[str, str | None] = {}
    user_only = ("tests",) + ENTRY_POINT_DIRS
    by_root: dict[str, list[FileContext]] = {}
    candidates: list[tuple[FileContext, ast.AST, list[ast.AST]]] = []
    for ctx in contexts:
        path = os.path.abspath(ctx.path)
        root = _project_root(os.path.dirname(path), cache)
        if root is None:
            continue
        top = os.path.relpath(path, root).split(os.sep)[0]
        if top == "tests":
            continue
        by_root.setdefault(root, []).append(ctx)
        if top not in user_only:
            defs = [node for node in ctx.nodes if type(node) in _DEF_TYPES]
            candidates.extend(
                (ctx, node, defs)
                for node in defs
                if not (node.name.startswith("__") and node.name.endswith("__"))
            )
    if not candidates:
        return []
    wanted = {node.name for _, node, _ in candidates}

    total: dict[str, int] = {}
    lines: dict[tuple[str, str], list[int]] = {}
    for root, scanned in sorted(by_root.items()):
        files: list[tuple[str, list[ast.AST]]] = [(c.path, c.nodes) for c in scanned]
        seen = {os.path.abspath(c.path) for c in scanned}
        for entry in sorted(os.listdir(root)):
            if entry == "tests" or entry.startswith("."):
                continue
            for path in iter_python_files([os.path.join(root, entry)]):
                if os.path.abspath(path) in seen or not path.endswith(".py"):
                    continue
                loaded = load_context(path)
                if isinstance(loaded, FileContext):
                    files.append((loaded.path, loaded.nodes))
        for path, nodes in files:
            if os.path.basename(path) == "__init__.py":
                nodes = [n for n in nodes if type(n) not in _IMPORT_TYPES]
            for name, line in _name_uses(nodes, wanted):
                total[name] = total.get(name, 0) + 1
                lines.setdefault((path, name), []).append(line)

    findings: list[Finding] = []
    for ctx, node, defs in candidates:
        name = node.name
        start, end = node.lineno, node.end_lineno or node.lineno
        inside = sum(
            1 for line in lines.get((ctx.path, name), ()) if start <= line <= end
        )
        if total.get(name, 0) > inside or _registered(node, wanted):
            continue
        findings.append(ctx.finding(node, REACHABILITY_CODE, (
            f"'{_qualname(node, defs)}' is not reachable from any non-test entry point: "
            "its name appears nowhere outside tests/ and its own body — "
            "delete it, or keep a deliberate public name with a "
            "'detlint: ignore[DF401]' comment and a one-line reason"
        )))
    return findings
