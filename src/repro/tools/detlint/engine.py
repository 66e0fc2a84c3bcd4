"""The detlint engine: findings, the rule registry, suppressions, and
the one pass that runs every check.

detlint is a purpose-built static analyzer for *this* repository's
determinism contract (see ``docs/STATIC_ANALYSIS.md``).  General linters
check style; detlint checks the invariants the keystone byte-identity
tests rely on — all randomness flows through :mod:`repro.rng`
substreams, simulation code never reads wall clocks, and nothing
nondeterministic reaches a fingerprinted or digested artifact.  It is
stdlib-only (``ast``) so it runs anywhere the repo does.

Architecture:

* :class:`Finding` — one diagnostic, sortable into stable output order.
* :class:`FileContext` — a parsed module plus everything rules need
  (dotted module name, raw lines, per-line suppressions) and a scratch
  area where file rules leave data for project rules.
* :data:`RULES` — every code the analyzer can emit, listed once.  Its
  ``scope`` says which layer emits it: ``local`` codes come from file
  rules (:func:`rule`) and cross-file project rules
  (``rule(code, project=True)``) in :mod:`~repro.tools.detlint.rules`;
  ``program`` codes come from the whole-program layer — the symbol and
  call graph (:mod:`~repro.tools.detlint.graph`), interprocedural taint
  (:mod:`~repro.tools.detlint.taint`) and the crash-boundary,
  fork-safety and reachability checks
  (:mod:`~repro.tools.detlint.checks`); ``engine``
  codes come from this module.
* suppressions — ``# detlint: ignore[CODE]`` on the offending line
  silences that code there; a suppression that silences nothing is
  itself reported (:data:`UNUSED_SUPPRESSION_CODE`), so stale ignores
  cannot accumulate.

The dotted module name drives rule scoping (e.g. wall-clock bans apply
to simulation packages only).  It is normally derived from the file
path (``src/repro/leo/channel.py`` -> ``repro.leo.channel``); test
fixtures that live outside the package tree can claim a module with a
``# detlint-module: repro.core.something`` header comment.
"""

from __future__ import annotations

import ast
import functools
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

#: Code attached to ``# detlint: ignore[...]`` comments that suppressed
#: nothing.  Selectable/ignorable like any rule code.
UNUSED_SUPPRESSION_CODE = "SUP001"

#: Code attached to files that fail to parse.
PARSE_ERROR_CODE = "SYN001"

_SUPPRESSION_RE = re.compile(r"#\s*detlint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")
_MODULE_OVERRIDE_RE = re.compile(r"^#\s*detlint-module:\s*([A-Za-z0-9_.]+)\s*$")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything the rules know about one parsed module."""

    path: str
    module: str
    tree: ast.Module
    lines: list[str]
    #: line -> set of rule codes suppressed on that line.
    suppressions: dict[int, set[str]]
    #: Scratch shared with project rules; file rules append here (e.g.
    #: INV101 leaves every registered metric-series name).
    shared: dict[str, Any] = field(default_factory=dict)

    @functools.cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, walked once for
        all the file rules."""
        return list(ast.walk(self.tree))

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


@dataclass(frozen=True)
class RuleInfo:
    """Registry entry: code, the layer that emits it, one-line summary."""

    code: str
    #: ``local`` (file/project pattern rules), ``program`` (the
    #: whole-program graph, taint and checks) or ``engine``.
    scope: str
    summary: str


#: Every code the analyzer emits, once each, in documentation order.
RULES: dict[str, RuleInfo] = {
    info.code: info
    for info in (
        RuleInfo("DET001", "local", "no random/numpy.random global RNG outside repro.rng"),
        RuleInfo("DET002", "local", "no wall-clock reads in simulation packages"),
        RuleInfo("DET003", "local", "no iteration over sets feeding ordered output"),
        RuleInfo("DET004", "local", "no os.urandom/uuid/hash() entropy in artifact code"),
        RuleInfo("DET005", "local", "no mutation of CampaignConfig fingerprint fields"),
        RuleInfo("DET006", "local", "no bare open()+json.dump writes outside repro.store"),
        RuleInfo("DET007", "local", "no per-sample loops over LinkConditions traces in hot packages"),
        RuleInfo("DET008", "local", "no unsorted directory listings feeding ordered output"),
        RuleInfo("INV101", "local", "series names match subsystem.metric; manifest exclusions name registered series"),
        RuleInfo("INV102", "local", "serve metrics must be excluded from the deterministic manifest"),
        RuleInfo("DF001", "program", "star imports defeat whole-program name resolution"),
        RuleInfo("DF101", "program", "wall-clock time reaches a byte-identity sink"),
        RuleInfo("DF102", "program", "os.environ/pid reaches a byte-identity sink"),
        RuleInfo("DF103", "program", "unsorted directory listing reaches a byte-identity sink"),
        RuleInfo("DF104", "program", "set/dict-ordering iteration reaches a byte-identity sink"),
        RuleInfo("DF105", "program", "global RNG state reaches a byte-identity sink"),
        RuleInfo("DF106", "program", "float reduction over an unordered collection reaches a sink"),
        RuleInfo("DF201", "program", "crash boundary not referenced by any crash test"),
        RuleInfo("DF202", "program", "crash-boundary coverage could not be verified (fails closed)"),
        RuleInfo("DF301", "program", "live state captured across a fork boundary"),
        RuleInfo("DF401", "program", "src symbol not reachable from any non-test entry point"),
        RuleInfo(UNUSED_SUPPRESSION_CODE, "engine", "unused # detlint: ignore[...] suppression"),
        RuleInfo(PARSE_ERROR_CODE, "engine", "file failed to parse"),
    )
}

#: Per-file checks (``check(ctx)``) and cross-file checks
#: (``check(contexts)``), keyed by the code they emit.
FILE_CHECKS: dict[str, Callable[[FileContext], Iterable[Finding]]] = {}
PROJECT_CHECKS: dict[str, Callable[[list[FileContext]], Iterable[Finding]]] = {}


def rule(code: str, project: bool = False) -> Callable[[Callable[..., Iterable[Finding]]], Callable[..., Iterable[Finding]]]:
    """Attach a check to a registered ``local`` code.

    A file check takes one :class:`FileContext`; a project check
    (``project=True``) takes every context and judges cross-file
    invariants.  One code may have one of each (INV101 does).
    """
    checks: dict[str, Callable[..., Iterable[Finding]]] = (
        PROJECT_CHECKS if project else FILE_CHECKS
    )

    def wrap(fn: Callable[..., Iterable[Finding]]) -> Callable[..., Iterable[Finding]]:
        if code not in RULES or code in checks:
            raise ValueError(f"unregistered or duplicate rule code {code!r}")
        checks[code] = fn
        return fn

    return wrap


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# -- module discovery ----------------------------------------------------


def module_name_for(path: str, first_line: str = "") -> str:
    """Dotted module name for a file path.

    A ``# detlint-module: x.y.z`` header comment wins (fixtures);
    otherwise the name is the path from the last ``repro`` directory
    down (how the repo lays out ``src/repro/...``); otherwise the bare
    stem.
    """
    match = _MODULE_OVERRIDE_RE.match(first_line.strip())
    if match:
        return match.group(1)
    parts = list(os.path.normpath(path).split(os.sep))
    stem = os.path.splitext(parts[-1])[0]
    parts[-1] = stem
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = [stem]
    if parts[-1] == "__init__":
        parts = parts[:-1] or [stem]
    return ".".join(parts)


def parse_suppressions(lines: list[str]) -> dict[int, set[str]]:
    """``{line_number: {codes}}`` for every ``detlint: ignore`` comment."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESSION_RE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            if codes:
                out[lineno] = codes
    return out


# -- running -------------------------------------------------------------


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    seen: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d != "__pycache__" and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    full = os.path.join(dirpath, name)
                    if full not in seen:
                        seen.add(full)
                        yield full


def load_context(path: str) -> FileContext | Finding:
    """Parse one file into a :class:`FileContext` (or a parse Finding)."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return Finding(path=path, line=1, col=1, code=PARSE_ERROR_CODE,
                       message=f"unreadable: {exc}")
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return Finding(path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                       code=PARSE_ERROR_CODE, message=f"syntax error: {exc.msg}")
    lines = text.splitlines()
    return FileContext(
        path=path,
        module=module_name_for(path, lines[0] if lines else ""),
        tree=tree,
        lines=lines,
        suppressions=parse_suppressions(lines),
    )


def active_codes(select: Iterable[str] | None, ignore: Iterable[str] | None) -> set[str]:
    """Resolve ``--select``/``--ignore`` into the set of codes to run."""
    codes = set(RULES)
    for requested in (select, ignore):
        unknown = set(requested or ()) - set(RULES)
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    if select:
        codes = set(select)
    if ignore:
        codes -= set(ignore)
    return codes


def run_paths(
    paths: Iterable[str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    tests_dir: str | None = None,
) -> list[Finding]:
    """Analyze every Python file under ``paths``; return sorted findings.

    Each file is parsed once.  The file rules run over every module,
    then the project rules over all of them, then — only when one of
    their codes is selected — the whole-program passes: the project
    graph (DF001), taint (DF101–DF106), crash-boundary coverage
    (DF201/DF202, against the crash tests in ``tests_dir``, else a
    ``tests/`` directory found near ``paths``), fork safety (DF301) and
    reachability from the non-test entry points (DF401).

    Findings of unselected codes, then suppressed findings, are
    dropped; suppressions that matched nothing become
    :data:`UNUSED_SUPPRESSION_CODE` findings (unless that code is itself
    deselected).  Parse failures surface as :data:`PARSE_ERROR_CODE`
    findings — a file detlint cannot read is a file whose invariants
    nobody checked.
    """
    # The rule modules import this one; importing ``rules`` also
    # attaches the local checks to FILE_CHECKS/PROJECT_CHECKS.
    from repro.tools.detlint import checks, rules as _rules, taint  # noqa: F401
    from repro.tools.detlint.graph import IMPORT_STAR_CODE, ProjectGraph

    codes = active_codes(select, ignore)
    path_list = list(paths)
    contexts: list[FileContext] = []
    raw: list[Finding] = []
    for path in iter_python_files(path_list):
        loaded = load_context(path)
        if isinstance(loaded, Finding):
            raw.append(loaded)
            continue
        contexts.append(loaded)

    for ctx in contexts:
        for code, check in FILE_CHECKS.items():
            if code in codes:
                raw.extend(check(ctx))
    for code, check in PROJECT_CHECKS.items():
        if code in codes:
            raw.extend(check(contexts))

    taint_codes = set(taint.CATEGORY_CODES.values())
    if codes & (taint_codes | {IMPORT_STAR_CODE, checks.FORK_CAPTURE_CODE}):
        graph = ProjectGraph.build(contexts)
        raw.extend(graph.findings)
        if codes & taint_codes:
            raw.extend(taint.analyze(graph))
        if checks.FORK_CAPTURE_CODE in codes:
            raw.extend(checks.check_fork_safety(graph))
    if checks.REACHABILITY_CODE in codes:
        raw.extend(checks.check_reachability(contexts))
    if codes & {checks.BOUNDARY_UNCOVERED_CODE, checks.BOUNDARY_INFRA_CODE}:
        if tests_dir is None:
            tests_dir = checks.find_tests_dir(path_list)
        raw.extend(checks.check_boundary_coverage(contexts, tests_dir))

    findings: list[Finding] = []
    used: dict[tuple[str, int], set[str]] = {}
    by_path = {ctx.path: ctx for ctx in contexts}
    for finding in raw:
        if finding.code not in codes:
            continue
        ctx = by_path.get(finding.path)
        suppressed = ctx is not None and finding.code in ctx.suppressions.get(
            finding.line, set()
        )
        if suppressed:
            used.setdefault((finding.path, finding.line), set()).add(finding.code)
        else:
            findings.append(finding)

    if UNUSED_SUPPRESSION_CODE in codes:
        for ctx in contexts:
            for lineno, supp_codes in ctx.suppressions.items():
                for code in sorted(supp_codes):
                    if code not in codes or code == UNUSED_SUPPRESSION_CODE:
                        continue
                    if code not in used.get((ctx.path, lineno), set()):
                        findings.append(Finding(
                            path=ctx.path,
                            line=lineno,
                            col=1,
                            code=UNUSED_SUPPRESSION_CODE,
                            message=(
                                f"unused suppression: no {code} finding on "
                                "this line — remove the ignore"
                            ),
                        ))
    return sorted(findings)
