"""Project-wide symbol table and import/call graph (stdlib ``ast`` only).

detlint's whole-program passes (taint, fork safety) stand on the
structures built here:

* :class:`ModuleInfo` — one parsed module: its import bindings (local
  name -> dotted target), top-level functions, classes and methods, and
  a light local-type environment (``x = ClassName(...)`` binds ``x`` to
  that class, including classes imported from other project modules or
  from well-known library modules like ``repro.store.shard``).
* :class:`FunctionInfo` — one function or method, addressed by a fully
  qualified name (``repro.store.shard.ShardWriter.append``).
* :class:`ProjectGraph` — every module and function plus the *call
  graph*: for each function, the list of resolved project-internal call
  sites (:class:`CallSite`).  Calls that cannot be resolved statically
  (dynamic dispatch, library calls, getattr) are simply absent — every
  consumer of the graph treats missing edges conservatively.

Determinism: the graph is a pure function of the *set* of files given,
never of their discovery order.  Modules are keyed and iterated by
dotted module name, functions by qualified name, so two scans over the
same tree — whatever order the filesystem returns — produce identical
graphs (property-tested in ``tests/test_detflow_properties.py``).

``from x import *`` is rejected with a finding rather than guessed at:
a star import makes name resolution unsound, and unsound resolution
silently drops taint edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.tools.detlint.engine import FileContext, Finding, _dotted

#: Star imports make resolution unsound; the graph refuses to guess.
IMPORT_STAR_CODE = "DF001"


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: ``caller`` calls ``callee`` at ``node``."""

    caller: str
    callee: str
    node: ast.Call


@dataclass
class FunctionInfo:
    """One function or method and everything resolution needs."""

    #: Fully qualified name: ``module.func`` or ``module.Class.method``.
    qualname: str
    module: str
    #: Class name for methods, ``None`` for plain functions.
    owner: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Positional parameter names, in order (``self`` included for
    #: methods — callers index arguments accordingly).
    params: list[str] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.owner is not None


@dataclass
class ClassInfo:
    """One class: its methods and ``self.attr`` constructor types."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: method name -> FunctionInfo qualname
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.attr = SomeClass(...)`` bindings seen anywhere in the
    #: class body: attr name -> class qualname (``None`` until computed).
    attr_types: dict[str, str] | None = None


@dataclass
class ModuleInfo:
    """One parsed module plus its resolution environment."""

    name: str
    ctx: FileContext
    #: local name -> dotted target for every import binding
    #: (``import a.b as m`` -> ``{"m": "a.b"}``; ``from a import f`` ->
    #: ``{"f": "a.f"}``; plain ``import a.b`` -> ``{"a": "a"}``).
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level function name -> qualname
    functions: dict[str, str] = field(default_factory=dict)
    #: class name -> ClassInfo qualname
    classes: dict[str, str] = field(default_factory=dict)


def _collect_imports(tree: ast.Module, module: str) -> tuple[dict[str, str], list[ast.ImportFrom]]:
    """Import bindings plus every ``from x import *`` node."""
    imports: dict[str, str] = {}
    stars: list[ast.ImportFrom] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: resolve against this module's package.
                parts = module.split(".")
                if len(parts) >= node.level:
                    prefix = ".".join(parts[: len(parts) - node.level])
                    base = f"{prefix}.{base}" if base else prefix
            for alias in node.names:
                if alias.name == "*":
                    stars.append(node)
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports, stars


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    return [a.arg for a in (*args.posonlyargs, *args.args)]


class ProjectGraph:
    """Symbol table + call graph over a set of parsed modules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: caller qualname -> resolved call sites (in source order)
        self.calls: dict[str, list[CallSite]] = {}
        self.findings: list[Finding] = []
        #: function qualname -> :meth:`local_types` (pure once built).
        self._local_types: dict[str, dict[str, str]] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, contexts: list[FileContext]) -> "ProjectGraph":
        graph = cls()
        # Key everything by module name so the graph is independent of
        # the order the files were discovered in.
        for ctx in sorted(contexts, key=lambda c: (c.module, c.path)):
            graph._add_module(ctx)
        for name in sorted(graph.modules):
            graph._resolve_module_calls(graph.modules[name])
        return graph

    def _add_module(self, ctx: FileContext) -> None:
        if ctx.module in self.modules:
            # Two files claiming one module (e.g. duplicate fixture
            # overrides): first (path-sorted) wins, deterministically.
            return
        info = ModuleInfo(name=ctx.module, ctx=ctx)
        info.imports, stars = _collect_imports(ctx.tree, ctx.module)
        for star in stars:
            self.findings.append(ctx.finding(star, IMPORT_STAR_CODE, (
                f"'from {star.module} import *' defeats whole-program name "
                "resolution (detlint cannot tell which names this module "
                "now binds); import the needed names explicitly"
            )))
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{ctx.module}.{node.name}"
                info.functions[node.name] = qualname
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=ctx.module,
                    owner=None,
                    node=node,
                    params=_param_names(node),
                )
            elif isinstance(node, ast.ClassDef):
                self._add_class(ctx, info, node)
        self.modules[ctx.module] = info

    def _add_class(self, ctx: FileContext, info: ModuleInfo, node: ast.ClassDef) -> None:
        class_qual = f"{ctx.module}.{node.name}"
        cls_info = ClassInfo(qualname=class_qual, module=ctx.module, node=node)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{class_qual}.{item.name}"
                cls_info.methods[item.name] = qualname
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=ctx.module,
                    owner=node.name,
                    node=item,
                    params=_param_names(item),
                )
        info.classes[node.name] = class_qual
        self.classes[class_qual] = cls_info

    # -- name resolution -------------------------------------------------

    def resolve_name(self, module: ModuleInfo, dotted: str) -> str | None:
        """Resolve a dotted use (``m.f``, ``f``, ``Cls.method``) to a
        fully qualified project name, or ``None``.

        Resolution order: local top-level functions and classes, then
        import bindings (followed one hop into other project modules:
        ``from a import f`` resolves through module ``a``'s own
        re-exports if ``a`` is in the scan), then plain dotted names
        under an imported module.
        """
        head, _, rest = dotted.partition(".")
        target: str | None = None
        if head in module.functions:
            target = module.functions[head]
        elif head in module.classes:
            target = module.classes[head]
        elif head in module.imports:
            target = module.imports[head]
        else:
            return None
        full = f"{target}.{rest}" if rest else target
        return self._canonical(full)

    def _canonical(self, qualname: str, _depth: int = 0) -> str | None:
        """Follow import chains to the defining module (bounded)."""
        if _depth > 8:  # import cycles: give up, keep the last name
            return qualname
        if qualname in self.functions or qualname in self.classes:
            return qualname
        # ``module.Class.method`` where the class is known.
        parent, _, leaf = qualname.rpartition(".")
        if parent in self.classes:
            method = self.classes[parent].methods.get(leaf)
            return method
        # ``module.name`` where ``module`` is scanned: follow one
        # re-export/import hop (``from a.b import f`` exposed as
        # ``a.f``), or conclude the name does not exist.
        if parent in self.modules:
            reexport = self.modules[parent].imports.get(leaf)
            if reexport is not None:
                return self._canonical(reexport, _depth + 1)
            return None
        # Unscanned territory (stdlib, third-party, out-of-scan repo
        # modules): keep the dotted name as an opaque external id.
        return qualname

    # -- local type inference --------------------------------------------

    def _class_of_call(self, module: ModuleInfo, call: ast.expr) -> str | None:
        """``SomeClass(...)`` -> the class qualname (scanned or external)."""
        if not isinstance(call, ast.Call):
            return None
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        resolved = self.resolve_name(module, dotted)
        if resolved is None:
            return None
        if resolved in self.classes:
            return resolved
        # External class (e.g. repro.store.shard.ShardWriter when only
        # fixtures are scanned): treat a CamelCase leaf as a class.
        leaf = resolved.rpartition(".")[2]
        if leaf[:1].isupper() and resolved not in self.functions:
            return resolved
        return None

    def local_types(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> dict[str, str]:
        """``{local_name: class_qualname}`` for constructor assignments
        inside ``fn`` (plus ``self`` for methods); read-only, cached."""
        cached = self._local_types.get(fn.qualname)
        if cached is not None:
            return cached
        types: dict[str, str] = {}
        if fn.is_method:
            types["self"] = f"{fn.module}.{fn.owner}"
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                cls = self._class_of_call(module, node.value)
                if cls is None:
                    continue
                if isinstance(target, ast.Name):
                    types[target.id] = cls
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    types[f"self.{target.attr}"] = cls
        self._local_types[fn.qualname] = types
        return types

    def class_attr_types(self, class_qual: str) -> dict[str, str]:
        """``self.attr`` constructor types aggregated over all methods."""
        info = self.classes.get(class_qual)
        if info is None:
            return {}
        if info.attr_types is not None:
            return info.attr_types
        module = self.modules[info.module]
        out: dict[str, str] = {}
        for method_qual in info.methods.values():
            fn = self.functions[method_qual]
            for name, cls in self.local_types(module, fn).items():
                if name.startswith("self."):
                    out.setdefault(name[len("self."):], cls)
        info.attr_types = out
        return out

    # -- call resolution -------------------------------------------------

    def resolve_call(
        self,
        module: ModuleInfo,
        fn: FunctionInfo,
        call: ast.Call,
        types: dict[str, str] | None = None,
    ) -> str | None:
        """Resolve one call expression to a function qualname.

        Handles: plain names (local function or ``from x import f``),
        dotted module calls (``mod.f()``), ``self.method()``,
        ``ClassName.method(...)``, and method calls on locals whose
        class is known from a constructor assignment
        (``w = ShardWriter(...); w.append(...)``).
        """
        if types is None:
            types = self.local_types(module, fn)
        func = call.func
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        # Method call on a typed local / self attribute.
        if rest:
            receiver: str | None = None
            if head in types:
                receiver = types[head]
            if head == "self" and "." in rest:
                attr, _, tail = rest.partition(".")
                attr_types = self.class_attr_types(types.get("self", ""))
                if attr in attr_types and tail:
                    receiver, rest = attr_types[attr], tail
            if receiver is not None:
                resolved = self._canonical(f"{receiver}.{rest}")
                if resolved is not None:
                    return resolved
                return f"{receiver}.{rest}"
        return self.resolve_name(module, dotted)

    def _resolve_module_calls(self, module: ModuleInfo) -> None:
        for qualname in sorted(self.functions):
            fn = self.functions[qualname]
            if fn.module != module.name:
                continue
            types = self.local_types(module, fn)
            sites: list[CallSite] = []
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self.resolve_call(module, fn, node, types)
                if callee is not None:
                    sites.append(CallSite(caller=qualname, callee=callee, node=node))
            self.calls[qualname] = sites

    # -- queries ----------------------------------------------------------

    # Kept: the seam the graph's property tests observe call edges through.
    def edge_set(self) -> set[tuple[str, str]]:  # detlint: ignore[DF401]
        """``{(caller, callee)}`` over resolved project-internal edges."""
        out: set[tuple[str, str]] = set()
        for caller, sites in self.calls.items():
            for site in sites:
                if site.callee in self.functions:
                    out.add((caller, site.callee))
        return out
